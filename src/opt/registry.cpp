#include "opt/registry.hpp"

#include "opt/passes.hpp"

namespace dvs {

void PassRegistry::register_pass(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, _] : factories_)
    if (existing == name)
      throw OptionError("pass '" + name + "' is already registered");
  factories_.emplace_back(name, std::move(factory));
}

bool PassRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, _] : factories_)
    if (existing == name) return true;
  return false;
}

std::unique_ptr<Pass> PassRegistry::create(const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [existing, f] : factories_)
      if (existing == name) factory = f;
  }
  if (!factory) throw OptionError("unknown pass '" + name + "'");
  return factory();
}

PassRegistry& pass_registry() {
  static PassRegistry* kRegistry = [] {
    auto* registry = new PassRegistry;
    register_builtin_passes(*registry);
    return registry;
  }();
  return *kRegistry;
}

}  // namespace dvs
