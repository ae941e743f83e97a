#include "support/fault_inject.hpp"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace dvs {

struct FaultInjector::State {
  struct Rule {
    std::string point;
    Action action = Action::kNone;
    double probability = 1.0;
  };
  std::vector<Rule> rules;
  std::uint64_t seed = 1;
  int stall_ms = 60'000;
  std::mutex mutex;
  std::unordered_map<std::string, std::uint64_t> arrivals;
};

namespace {

[[noreturn]] void bad_spec(const std::string& entry, const std::string& why) {
  throw std::runtime_error(
      "fault-inject: bad entry '" + entry + "': " + why +
      " (grammar: point=action[@prob],... with actions drop-connection|"
      "stall|corrupt-reply|die-after-accept, plus seed=N, stall_ms=N)");
}

FaultInjector::Action parse_action(const std::string& entry,
                                   const std::string& name) {
  if (name == "drop-connection") return FaultInjector::Action::kDropConnection;
  if (name == "stall") return FaultInjector::Action::kStall;
  if (name == "corrupt-reply") return FaultInjector::Action::kCorruptReply;
  if (name == "die-after-accept")
    return FaultInjector::Action::kDieAfterAccept;
  bad_spec(entry, "unknown action '" + name + "'");
}

}  // namespace

FaultInjector FaultInjector::parse(const std::string& spec) {
  FaultInjector out;
  if (spec.empty()) return out;
  auto state = std::make_shared<State>();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size())
      bad_spec(entry, "expected key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    try {
      if (key == "seed") {
        state->seed = std::stoull(value);
        continue;
      }
      if (key == "stall_ms") {
        state->stall_ms = std::stoi(value);
        if (state->stall_ms < 0) bad_spec(entry, "stall_ms must be >= 0");
        continue;
      }
      State::Rule rule;
      rule.point = key;
      const std::size_t at = value.find('@');
      rule.action = parse_action(entry, value.substr(0, at));
      if (at != std::string::npos) {
        rule.probability = std::stod(value.substr(at + 1));
        if (rule.probability < 0.0 || rule.probability > 1.0)
          bad_spec(entry, "probability must be in [0, 1]");
      }
      state->rules.push_back(std::move(rule));
    } catch (const std::invalid_argument&) {
      bad_spec(entry, "malformed number");
    } catch (const std::out_of_range&) {
      bad_spec(entry, "number out of range");
    }
  }
  out.state_ = std::move(state);
  return out;
}

FaultInjector FaultInjector::from_env() {
  const char* spec = std::getenv("DVS_FAULT_INJECT");
  return parse(spec == nullptr ? std::string() : std::string(spec));
}

FaultInjector::Action FaultInjector::at(const std::string& point) {
  if (!state_) return Action::kNone;
  std::uint64_t arrival = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    arrival = state_->arrivals[point]++;
  }
  // One decision stream per (seed, point, arrival); rules are drawn in
  // declaration order so overlapping rules on one point resolve
  // deterministically too.
  Rng rng(mix_seed(mix_seed(state_->seed, fnv1a64(point)), arrival));
  for (const State::Rule& rule : state_->rules) {
    if (rule.point != point) continue;
    if (rng.next_double() < rule.probability) return rule.action;
  }
  return Action::kNone;
}

int FaultInjector::stall_ms() const {
  return state_ ? state_->stall_ms : 60'000;
}

}  // namespace dvs
