#include "service/design_session.hpp"

#include <algorithm>
#include <utility>

#include "core/job.hpp"
#include "core/sweep_matrix.hpp"
#include "power/eval_ledger.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

using Clock = std::chrono::steady_clock;

/// Why a retired handle name is gone (tombstones_ values).
enum Tombstone : int { kClosed, kExpired, kEvicted };

const char* const kDraining = "draining: design sessions are closing";

}  // namespace

/// One open design: the loaded Design plus everything pinned at open
/// time so every later verb re-derives nothing — the job it was resolved
/// from (effective library, circuit seed), the frozen tspec — and the
/// maintained incremental timer and evaluation ledger.  Published
/// complete by open; from then on `mutex` serializes verbs on this
/// design, and refs / last_used / bytes / edits are guarded by the
/// registry mutex.
struct DesignRegistry::Handle {
  std::mutex mutex;

  std::string name;
  std::string circuit;  // MCNC name or "<inline>"
  /// The heap-allocated handle never moves, so the job's library keeps
  /// its address for the Design's lifetime; the job's network copy is
  /// dropped once the Design holds the circuit.
  ResolvedJob job;
  JobOptions options;       // as opened (sweeps re-derive from these)
  FlowOptions base_flow;    // circuit_flow(options, circuit seed)
  double tspec = 0.0;       // frozen at open: mapped delay * (1+relax)
  double org_power_uw = 0.0;

  std::optional<Design> design;
  /// Maintained incremental timer; dropped (null) by structural edits
  /// and rebuilt by the next full evaluation.  While present, its
  /// context spans point into `design`'s vectors — which is why any
  /// edit that resizes them must reset it first.
  std::unique_ptr<IncrementalSta> ista;
  /// Power, area and gate counts kept beside the timer: built by the
  /// first incremental evaluation (not by the arming full one, so it
  /// stays out of the set-up's memory peak), rebuilt in place by a full
  /// evaluation, dropped with the timer by structural edits.
  std::optional<EvalLedger> ledger;
  bool structural_dirty = false;
  /// The byte estimate's inputs moved (a structural edit, or the timer
  /// or ledger appeared or went): the next edit re-estimates.
  bool bytes_stale = false;

  /// Lazy name -> id map for string gate addresses, rebuilt when the
  /// network's structural version moves.
  std::unordered_map<std::string, NodeId> gate_names;
  std::uint64_t gate_names_version = ~0ull;

  // Guarded by the registry mutex:
  int refs = 0;
  Clock::time_point last_used{};
  std::size_t bytes = 0;
  std::uint64_t edits = 0;
};

namespace {

/// Resident-footprint estimate of one handle: network storage, the
/// Design's per-node vectors, ~64 B/node for the compiled timing graph +
/// activity, and the timer's and ledger's arrays.  An estimate is enough
/// — the budget exists to bound memory, not to account it to the byte.
std::size_t estimate_bytes(const DesignRegistry::Handle& handle) {
  const Network& net = handle.design->network();
  std::size_t bytes = sizeof(DesignRegistry::Handle);
  bytes += static_cast<std::size_t>(net.size()) * (sizeof(Node) + 64);
  net.for_each_node([&](const Node& n) {
    bytes += n.name.size() +
             (n.fanins.size() + n.fanouts.size()) * sizeof(NodeId);
  });
  bytes += static_cast<std::size_t>(net.size()) *
           (sizeof(SupplyId) + sizeof(char) + sizeof(int));
  if (handle.ista)
    bytes += static_cast<std::size_t>(net.size()) *
             (3 * sizeof(RiseFall) + 3 * sizeof(double));
  if (handle.ledger) bytes += handle.ledger->bytes();
  if (handle.job.custom_lib) bytes += 1u << 16;  // library copy, roughly
  return bytes;
}

Json supplies_json(const Library& lib) {
  Json::Array supplies;
  for (double v : lib.supplies().voltages()) supplies.emplace_back(v);
  return Json(std::move(supplies));
}

/// The gate a DesignEdit addresses, by id or by name.  Throws the
/// protocol-verbatim unknown-gate / not-a-gate errors.
NodeId resolve_gate(DesignRegistry::Handle& handle, const Json& gate) {
  const Network& net = handle.design->network();
  NodeId id = kNoNode;
  std::string label;
  if (gate.is_string()) {
    label = "'" + gate.as_string() + "'";
    if (handle.gate_names_version != net.structural_version()) {
      handle.gate_names.clear();
      net.for_each_node([&](const Node& n) {
        if (!n.name.empty()) handle.gate_names[n.name] = n.id;
      });
      handle.gate_names_version = net.structural_version();
    }
    auto it = handle.gate_names.find(gate.as_string());
    if (it != handle.gate_names.end()) id = it->second;
  } else {
    id = static_cast<NodeId>(gate.as_int());
    label = std::string("'").append(std::to_string(id)).append("'");
  }
  if (id == kNoNode || !net.is_valid(id))
    throw ProtocolError("unknown gate " + label + " in design '" +
                        handle.name + "'");
  if (!net.node(id).is_gate())
    throw ProtocolError("node " + label + " of design '" + handle.name +
                        "' is not a gate");
  return id;
}

/// Applies one edit to the handle's design (handle mutex held).  Point
/// edits notify the incremental timer and the ledger; structural edits
/// resync the Design's vectors and drop both (their spans just went
/// stale).
void apply_edit(DesignRegistry::Handle& handle, const DesignEdit& edit) {
  Design& design = *handle.design;
  Network& net = design.network();
  const Library& lib = handle.job.library();
  const NodeId id = resolve_gate(handle, edit.gate);
  const Node& node = net.node(id);
  const auto notify = [&] {
    if (handle.ista) handle.ista->on_node_changed(id);
    if (handle.ledger) handle.ledger->on_node_changed(id);
  };
  const auto set_cell = [&](int cell) {
    net.set_cell(id, cell);
    notify();
  };
  const auto resync = [&] {
    design.sync_with_network();
    handle.ista.reset();
    handle.ledger.reset();
    handle.structural_dirty = true;
    handle.bytes_stale = true;
  };
  switch (edit.op) {
    case DesignEdit::Op::kRung: {
      if (edit.rung >= lib.supplies().depth())
        throw ProtocolError(
            "rung " + std::to_string(edit.rung) + " out of range for a " +
            std::to_string(lib.supplies().depth()) + "-rung ladder");
      design.set_level(id, static_cast<SupplyId>(edit.rung));
      notify();
      break;
    }
    case DesignEdit::Op::kCell: {
      const int cell = lib.find(edit.cell);
      if (cell < 0)
        throw ProtocolError("unknown cell '" + edit.cell + "'");
      const std::span<const int> variants = lib.variants_of(node.cell);
      if (std::find(variants.begin(), variants.end(), cell) ==
          variants.end())
        throw ProtocolError("cell '" + edit.cell +
                            "' is not a drive variant of gate '" +
                            node.name + "'");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kUpsize: {
      const int cell = lib.upsize(node.cell);
      if (cell < 0)
        throw ProtocolError("gate '" + node.name +
                            "' is already at the largest drive");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kDownsize: {
      const int cell = lib.downsize(node.cell);
      if (cell < 0)
        throw ProtocolError("gate '" + node.name +
                            "' is already at the smallest drive");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kInsertLc: {
      if (lib.level_converter() < 0)
        throw ProtocolError("library has no level-converter cell");
      std::vector<NodeId> moved;
      for_each_unique_fanout(node, [&](NodeId fo) { moved.push_back(fo); });
      std::vector<int> moved_ports;
      const std::vector<OutputPort>& outputs = net.outputs();
      for (std::size_t p = 0; p < outputs.size(); ++p)
        if (outputs[p].driver == id)
          moved_ports.push_back(static_cast<int>(p));
      if (moved.empty() && moved_ports.empty())
        throw ProtocolError("gate '" + node.name +
                            "' has no fanouts to convert");
      const std::string lc_name =
          "lc_" + node.name + "_" + std::to_string(net.structural_version());
      net.insert_between(id, moved, moved_ports, tt_buf(),
                         lib.level_converter(), lc_name);
      resync();
      break;
    }
    case DesignEdit::Op::kRemoveLc: {
      if (node.cell != lib.level_converter() || node.fanins.size() != 1)
        throw ProtocolError("gate '" + node.name +
                            "' is not a removable level converter");
      net.replace_uses(id, node.fanins.front());
      resync();
      break;
    }
  }
}

/// A complete handle for `request`, built with no lock held.
std::shared_ptr<DesignRegistry::Handle> build_handle(
    const std::string& name, const OpenDesignRequest& request,
    const Library& lib) {
  auto handle = std::make_shared<DesignRegistry::Handle>();
  handle->name = name;
  handle->circuit = request.circuit.empty() ? "<inline>" : request.circuit;
  handle->options = request.options;
  // Into the handle first: the Design points at the job's library.
  handle->job = resolve_job(request, lib, nullptr);
  ResolvedJob& job = handle->job;
  const Library& effective = job.library();
  const Network& mapped = job.network();
  handle->base_flow =
      circuit_flow(request.options.to_flow_options(), job.circuit_seed);
  JobInit init = make_job_init(mapped, effective, handle->base_flow);
  handle->tspec = init.row.tspec_ns;
  handle->org_power_uw = init.row.org_power_uw;
  handle->design.emplace(
      make_flow_design(mapped, effective, handle->base_flow, handle->tspec));
  handle->design->adopt_activity(std::move(init.activity));
  job.mapped.reset();  // the Design holds its own copy
  handle->bytes = estimate_bytes(*handle);
  return handle;
}

/// Copies the design's state under its handle lock.
DesignSnapshot snapshot(const std::shared_ptr<DesignRegistry::Handle>& handle) {
  std::lock_guard<std::mutex> lock(handle->mutex);
  DesignSnapshot snap;
  snap.owner = handle;
  snap.options = handle->options;
  snap.job.base_lib = &handle->job.library();
  snap.job.key.library = handle->job.key.library;
  snap.job.circuit_seed = handle->job.circuit_seed;
  snap.job.mapped.emplace(handle->design->network());
  snap.structural_version = handle->design->network().structural_version();
  return snap;
}

}  // namespace

DesignRegistry::DesignRegistry(const Library* lib,
                               DesignSessionConfig config, ThreadPool* pool)
    : lib_(lib), config_(config), pool_(pool) {}

DesignRegistry::~DesignRegistry() = default;

void DesignRegistry::retire_locked(const std::string& name, int tombstone) {
  auto it = handles_.find(name);
  if (it == handles_.end()) return;
  stats_.resident_bytes -= it->second->bytes;
  switch (static_cast<Tombstone>(tombstone)) {
    case kClosed:
      ++stats_.closed;
      break;
    case kExpired:
      ++stats_.expired;
      break;
    case kEvicted:
      ++stats_.evicted;
      break;
  }
  tombstones_[name] = tombstone;
  handles_.erase(it);
  stats_.open_now = handles_.size();
}

void DesignRegistry::gc_locked(Clock::time_point now) {
  // Idle expiry: anything untouched past the deadline goes, unless a
  // verb is mid-flight on it (try_lock fails -> skip this round).
  if (config_.idle_ms > 0) {
    std::vector<std::string> expired;
    for (const auto& [name, handle] : handles_) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - handle->last_used)
                            .count();
      if (idle < static_cast<long long>(config_.idle_ms)) continue;
      if (!handle->mutex.try_lock()) continue;
      handle->mutex.unlock();
      expired.push_back(name);
    }
    for (const std::string& name : expired) retire_locked(name, kExpired);
  }
  // Byte budget: evict oldest-idle first until under budget.  The
  // try_lock skip keeps the handle a verb is currently using resident.
  if (config_.max_bytes == 0) return;
  while (stats_.resident_bytes > config_.max_bytes && handles_.size() > 1) {
    std::string victim;
    Clock::time_point oldest = Clock::time_point::max();
    for (const auto& [name, handle] : handles_) {
      if (handle->last_used >= oldest) continue;
      if (!handle->mutex.try_lock()) continue;
      handle->mutex.unlock();
      victim = name;
      oldest = handle->last_used;
    }
    if (victim.empty()) return;  // everything busy; try again next op
    retire_locked(victim, kEvicted);
  }
}

void DesignRegistry::throw_not_open_locked(const std::string& name) const {
  auto tomb = tombstones_.find(name);
  if (tomb != tombstones_.end()) {
    switch (static_cast<Tombstone>(tomb->second)) {
      case kClosed:
        throw ProtocolError("design '" + name + "' is closed");
      case kExpired:
        throw ProtocolError("design '" + name +
                            "' expired after idle timeout");
      case kEvicted:
        throw ProtocolError("design '" + name +
                            "' was evicted under the design byte budget");
    }
  }
  throw ProtocolError("unknown design handle '" + name + "'");
}

std::shared_ptr<DesignRegistry::Handle> DesignRegistry::acquire(
    const std::string& name, bool allow_while_draining) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(name);
  if (it == handles_.end()) throw_not_open_locked(name);
  if (draining_ && !allow_while_draining) throw ProtocolError(kDraining);
  it->second->last_used = now;
  return it->second;
}

Json::Object DesignRegistry::open(const OpenDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::string name = request.name;
  std::shared_ptr<Handle> handle;
  bool attached = true;
  std::int64_t refs = 0;
  const auto check_room_locked = [&] {
    if (handles_.size() >= config_.max_open)
      throw ProtocolError("too many open designs: " +
                          std::to_string(handles_.size()) + " open at cap " +
                          std::to_string(config_.max_open));
  };
  const auto attach_locked = [&](const std::shared_ptr<Handle>& resident) {
    handle = resident;
    handle->refs += 1;
    handle->last_used = now;
    ++stats_.opened;
    refs = handle->refs;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gc_locked(now);
    if (draining_) throw ProtocolError(kDraining);
    if (name.empty())
      name = std::string("d").append(
          std::to_string(next_id_++));  // a failed open consumes it
    else if (auto it = handles_.find(name); it != handles_.end())
      attach_locked(it->second);
    if (!handle) check_room_locked();
  }
  if (!handle) {
    std::shared_ptr<Handle> built = build_handle(name, request, *lib_);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(name);
    if (it == handles_.end()) {  // else a concurrent open published first
      check_room_locked();
      it = handles_.emplace(name, built).first;
      tombstones_.erase(name);  // a reopened name is simply live again
      stats_.resident_bytes += built->bytes;
      stats_.open_now = handles_.size();
      attached = false;
    }
    attach_locked(it->second);
    gc_locked(now);  // the new resident may push others over budget
  }

  Json::Object fields;
  fields["attached"] = Json(attached);
  fields["refs"] = Json(refs);
  std::lock_guard<std::mutex> lock(handle->mutex);
  fields["design"] = Json(handle->name);
  fields["circuit"] = Json(handle->circuit);
  fields["gates"] = Json(handle->design->network().num_gates());
  fields["structural_version"] =
      Json(handle->design->network().structural_version());
  fields["tspec_ns"] = Json(handle->tspec);
  fields["org_power_uw"] = Json(handle->org_power_uw);
  fields["supplies"] = supplies_json(handle->job.library());
  return fields;
}

Json::Object DesignRegistry::edit(const EditRequest& request) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  std::lock_guard<std::mutex> lock(handle->mutex);
  int applied = 0;
  try {
    for (const DesignEdit& e : request.edits) {
      apply_edit(*handle, e);
      ++applied;
    }
  } catch (const ProtocolError& e) {
    // Edits before the failing one stay applied (README.md documents
    // the partial-application contract); the index pinpoints the rest.
    throw ProtocolError("edit " + std::to_string(applied) + ": " +
                        e.what());
  }
  // A point edit moves nothing the estimate reads, so only a stale
  // estimate walks the design again.
  std::optional<std::size_t> bytes;
  if (handle->bytes_stale) {
    bytes = estimate_bytes(*handle);
    handle->bytes_stale = false;
  }
  {
    std::lock_guard<std::mutex> registry_lock(mutex_);
    stats_.edits += static_cast<std::uint64_t>(applied);
    if (bytes) {
      stats_.resident_bytes += *bytes - handle->bytes;
      handle->bytes = *bytes;
    }
    handle->edits += static_cast<std::uint64_t>(applied);
  }
  Json::Object fields;
  fields["design"] = Json(handle->name);
  fields["applied"] = Json(applied);
  fields["structural"] = Json(handle->structural_dirty);
  fields["structural_version"] =
      Json(handle->design->network().structural_version());
  fields["gates"] = Json(handle->design->network().num_gates());
  return fields;
}

DesignReoptimizeResult DesignRegistry::reoptimize(
    const ReoptimizeRequest& request, RequestTrace* trace) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  DesignReoptimizeResult out;
  out.fields["design"] = Json(handle->name);

  if (!request.specs.empty()) {
    // Pipeline mode: the specs re-run from scratch on the edited netlist.
    // The caller runs the snapshot through the stateless job path — the
    // same cell engine and result cache as a stateless optimize of this
    // exact network — outside the handle lock.
    out.snapshot = snapshot(handle);
    out.fields["mode"] = Json("pipeline");
    out.fields["structural_version"] = Json(out.snapshot->structural_version);
    // Pipeline reoptimizes are from-scratch runs; count them as full.
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++stats_.reoptimize_full;
    return out;
  }

  // Evaluate mode: the ECO hot path.  Incremental reads the maintained
  // timer and ledger; full rebuilds a fresh Design from the current
  // network — i.e. exactly the stateless computation — and then re-arms
  // the timer for the next incremental round.
  std::lock_guard<std::mutex> lock(handle->mutex);
  Design& design = *handle->design;
  const Network& net = design.network();
  bool full = false;
  if (request.mode == "incremental") {
    if (handle->structural_dirty)
      throw ProtocolError(
          "cannot reoptimize '" + handle->name +
          "' incrementally: structural edits require a full recompile "
          "(mode 'full' or 'auto')");
  } else if (request.mode == "full") {
    full = true;
  } else {
    full = handle->structural_dirty;
  }

  double power = 0.0;
  double arrival = 0.0;
  double area = 0.0;
  int low = 0;
  int level_converters = 0;
  int resized = 0;
  handle->bytes_stale |= !handle->ista;  // a timer appears either way
  if (full) {
    Design fresh = make_flow_design(net, handle->job.library(),
                                    handle->base_flow, handle->tspec);
    for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id)
      if (net.is_valid(id) && design.level(id) != fresh.level(id))
        fresh.set_level(id, design.level(id));
    power = fresh.run_power().total();
    arrival = fresh.run_timing().worst_arrival;
    area = design.total_area();
    low = design.count_low();
    level_converters = design.count_lcs();
    resized = design.count_resized();
    // Re-arm the session: timer rebuilt over the session design (same
    // state the fresh evaluation just measured), structural debt paid.
    handle->ista = std::make_unique<IncrementalSta>(design.timing_context(),
                                                    handle->tspec);
    if (handle->ledger) handle->ledger->rebuild();
    handle->structural_dirty = false;
  } else {
    if (!handle->ista)
      handle->ista = std::make_unique<IncrementalSta>(
          design.timing_context(), handle->tspec);
    if (!handle->ledger) {
      handle->ledger.emplace(design.power_context());
      handle->bytes_stale = true;
    }
    const EvalLedger& ledger = *handle->ledger;
    const EvalLedger::Totals totals = ledger.totals();
    power = totals.power.total();
    arrival = handle->ista->result().worst_arrival;
    area = totals.area;
    low = ledger.low();
    level_converters = ledger.level_converters();
    resized = ledger.resized();
  }
  if (trace) trace->phase("evaluate");

  out.fields["mode"] = Json(full ? "full" : "incremental");
  out.fields["structural_version"] = Json(net.structural_version());
  out.fields["tspec_ns"] = Json(handle->tspec);
  out.fields["power_uw"] = Json(power);
  out.fields["arrival_ns"] = Json(arrival);
  out.fields["slack_ns"] = Json(handle->tspec - arrival);
  out.fields["meets_tspec"] = Json(arrival <= handle->tspec + 1e-9);
  out.fields["area_um2"] = Json(area);
  out.fields["low"] = Json(low);
  out.fields["level_converters"] = Json(level_converters);
  out.fields["resized"] = Json(resized);
  out.fields["org_power_uw"] = Json(handle->org_power_uw);
  out.fields["improve_pct"] =
      Json(improvement_pct(handle->org_power_uw, power));
  std::lock_guard<std::mutex> registry_lock(mutex_);
  if (full)
    ++stats_.reoptimize_full;
  else
    ++stats_.reoptimize_incremental;
  return out;
}

Json::Object DesignRegistry::sweep(const SweepRequest& request) {
  // Snapshot under the handle lock, compute outside it: a long sweep
  // must not block edits (or the GC's try_lock probe) on this design.
  const DesignSnapshot snap = snapshot(acquire(request.design));
  const Network& net = *snap.job.mapped;
  const Library& lib = *snap.job.base_lib;
  SweepMatrixSpec spec;
  spec.base = snap.options.to_flow_options();
  spec.circuit_seed = snap.job.circuit_seed;
  spec.ladders = request.ladders;
  for (double v : request.vlow)
    spec.ladders.push_back({lib.supplies().top(), v});
  spec.specs = request.specs;

  const std::function<Network(const Library&)> source =
      [&net](const Library&) { return net; };
  SweepMatrixResult result = run_sweep_matrix(source, lib, spec, pool_);
  {
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++stats_.sweeps;
    stats_.sweep_cells += static_cast<std::uint64_t>(result.cells.size());
  }
  Json grid = sweep_matrix_json(result);
  Json::Object fields = std::move(grid.as_object());
  fields["design"] = Json(request.design);
  fields["structural_version"] = Json(snap.structural_version);
  return fields;
}

Json::Object DesignRegistry::close(const CloseDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(request.design);
  if (it == handles_.end()) throw_not_open_locked(request.design);
  std::shared_ptr<Handle> handle = it->second;
  handle->refs -= 1;
  const int refs = handle->refs;
  if (refs == 0) retire_locked(request.design, kClosed);
  Json::Object fields;
  fields["design"] = Json(request.design);
  fields["refs"] = Json(static_cast<std::int64_t>(refs));
  return fields;
}

void DesignRegistry::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void DesignRegistry::close_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(handles_.size());
  for (const auto& [name, handle] : handles_) names.push_back(name);
  for (const std::string& name : names) retire_locked(name, kClosed);
}

std::size_t DesignRegistry::open_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return handles_.size();
}

DesignRegistryStats DesignRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dvs
