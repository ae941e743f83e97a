// Process-wide pass registry: name -> factory.  The built-in passes
// (cvs, dscale, gscale, trim, measure — opt/passes.cpp) are registered
// on first use; additional engines register at static-init or startup
// time and immediately become addressable from pipeline specs, the
// suite engine, the dvsd protocol, and every CLI without further
// plumbing.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "opt/pass.hpp"

namespace dvs {

class PassRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Pass>()>;

  /// Throws OptionError on duplicate names (a silently shadowed engine
  /// would change what cached fingerprints mean).
  void register_pass(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;

  /// New instance with default options.  Throws
  /// OptionError("unknown pass '<name>'") when unregistered.
  std::unique_ptr<Pass> create(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// The process-wide registry, with the built-in passes pre-registered.
PassRegistry& pass_registry();

}  // namespace dvs
