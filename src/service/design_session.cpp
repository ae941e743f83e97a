#include "service/design_session.hpp"

#include <algorithm>
#include <utility>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "core/sweep_matrix.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "service/cache.hpp"
#include "service/disk_cache.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace dvs {

namespace {

using Clock = std::chrono::steady_clock;

/// Why a retired handle name is gone (tombstones_ values).
enum Tombstone : int { kClosed, kExpired, kEvicted };

bool design_fully_mapped(const Network& net) {
  bool mapped = true;
  net.for_each_gate([&](const Node& n) {
    if (n.cell < 0) mapped = false;
  });
  return mapped;
}

}  // namespace

/// One open design: the loaded Design plus everything pinned at open
/// time so every later verb re-derives nothing — the effective library
/// (stable address for the Design's lifetime), the frozen tspec, the
/// derived seeds, the original cells (the sizing baseline "resized"
/// counts against, immune to full-evaluate Design rebuilds), and the
/// maintained incremental timer.  `mutex` serializes verbs on this
/// design; refs / last_used / bytes are guarded by the registry mutex.
struct DesignRegistry::Handle {
  std::mutex mutex;

  std::string name;
  std::string circuit;  // MCNC name or "<inline>"
  std::uint64_t circuit_seed = 0;
  JobOptions options;       // as opened (sweeps re-derive from these)
  FlowOptions base_flow;    // circuit_flow(options, circuit_seed)
  double tspec = 0.0;       // frozen at open: mapped delay * (1+relax)
  double org_power_uw = 0.0;

  /// Effective library: the registry's, or the ladder-adjusted copy.
  std::optional<SupplyLadder> custom_ladder;
  std::optional<Library> custom_lib;
  const Library* lib = nullptr;
  std::uint64_t lib_fp = 0;

  std::optional<Design> design;
  /// Maintained incremental timer; dropped (null) by structural edits
  /// and rebuilt by the next full evaluation.  While present, its
  /// context spans point into `design`'s vectors — which is why any
  /// edit that resizes them must reset it first.
  std::unique_ptr<IncrementalSta> ista;
  bool structural_dirty = false;

  /// Sizing baseline per node id (-1 = not an original gate; inserted
  /// level converters land here).
  std::vector<int> original_cells;

  /// Lazy name -> id map for string gate addresses, rebuilt when the
  /// network's structural version moves.
  std::unordered_map<std::string, NodeId> gate_names;
  std::uint64_t gate_names_version = ~0ull;

  // Guarded by the registry mutex:
  int refs = 0;
  Clock::time_point last_used{};
  std::size_t bytes = 0;
  std::uint64_t edits = 0;

  int count_resized() const {
    int resized = 0;
    design->network().for_each_gate([&](const Node& n) {
      const int original = n.id < static_cast<NodeId>(original_cells.size())
                               ? original_cells[n.id]
                               : -1;
      if (original >= 0 && n.cell != original) ++resized;
    });
    return resized;
  }
};

namespace {

/// Resident-footprint estimate of one handle: network storage, the
/// Design's per-node vectors, and ~64 B/node for the compiled timing
/// graph + activity + STA state.  An estimate is enough — the budget
/// exists to bound memory, not to account it to the byte.
std::size_t estimate_bytes(const DesignRegistry::Handle& handle) {
  const Network& net = handle.design->network();
  std::size_t bytes = sizeof(DesignRegistry::Handle);
  bytes += static_cast<std::size_t>(net.size()) * (sizeof(Node) + 64);
  net.for_each_node([&](const Node& n) {
    bytes += n.name.size() +
             (n.fanins.size() + n.fanouts.size()) * sizeof(NodeId);
  });
  bytes += static_cast<std::size_t>(net.size()) *
           (sizeof(SupplyId) + sizeof(double) + sizeof(char) + sizeof(int));
  if (handle.ista)
    bytes += static_cast<std::size_t>(net.size()) *
             (3 * sizeof(RiseFall) + 3 * sizeof(double));
  if (handle.custom_lib) bytes += 1u << 16;  // library copy, roughly
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
    label = "'" + std::to_string(id) + "'";
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
/// edits notify the incremental timer; structural edits resync the
/// Design's vectors and drop the timer (its spans just went stale).
void apply_edit(DesignRegistry::Handle& handle, const DesignEdit& edit,
                bool* structural) {
  Design& design = *handle.design;
  Network& net = design.network();
  const Library& lib = *handle.lib;
  const NodeId id = resolve_gate(handle, edit.gate);
  const Node& node = net.node(id);
  const auto notify = [&] {
    if (handle.ista) handle.ista->on_node_changed(id);
  };
  const auto set_cell = [&](int cell) {
    net.set_cell(id, cell);
    notify();
  };
  const auto resync = [&] {
    design.sync_with_network();
    handle.original_cells.resize(net.size(), -1);
    handle.ista.reset();
    handle.structural_dirty = true;
    *structural = true;
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

}  // namespace

DesignRegistry::DesignRegistry(const Library* lib,
                               DesignSessionConfig config, ThreadPool* pool,
                               ResultCache* cache, DiskCacheEngine* disk)
    : lib_(lib), config_(config), pool_(pool), cache_(cache), disk_(disk) {}

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

std::shared_ptr<DesignRegistry::Handle> DesignRegistry::acquire(
    const std::string& name, bool allow_while_draining) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(name);
  if (it == handles_.end()) {
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
  if (draining_ && !allow_while_draining)
    throw ProtocolError("draining: design sessions are closing");
  it->second->last_used = now;
  return it->second;
}

Json::Object DesignRegistry::open(const OpenDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::shared_ptr<Handle> handle;
  std::string name = request.name;
  bool attached = false;
  std::unique_lock<std::mutex> build_lock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gc_locked(now);
    if (draining_)
      throw ProtocolError("draining: design sessions are closing");
    if (!name.empty()) {
      auto it = handles_.find(name);
      if (it != handles_.end()) {
        handle = it->second;
        attached = true;
      }
    } else {
      name = "d" + std::to_string(next_id_++);
    }
    if (!handle) {
      if (handles_.size() >= config_.max_open)
        throw ProtocolError("too many open designs: " +
                            std::to_string(handles_.size()) +
                            " open at cap " +
                            std::to_string(config_.max_open));
      handle = std::make_shared<Handle>();
      handle->name = name;
      // Publish locked: lookups during the build below block on the
      // handle mutex (GC skips via try_lock) until the design is ready.
      build_lock = std::unique_lock<std::mutex>(handle->mutex);
      handles_.emplace(name, handle);
      tombstones_.erase(name);  // a reopened name is simply live again
      stats_.open_now = handles_.size();
    }
    handle->refs += 1;
    handle->last_used = now;
    ++stats_.opened;
  }

  if (!attached) {
    try {
      handle->circuit =
          request.circuit.empty() ? "<inline>" : request.circuit;
      handle->options = request.options;
      handle->lib = lib_;
      handle->lib_fp = lib_->fingerprint();
      if (!request.options.supplies.empty()) {
        SupplyLadder ladder(request.options.supplies);
        if (ladder != lib_->supplies()) {
          handle->custom_ladder.emplace(std::move(ladder));
          handle->custom_lib.emplace(*lib_);
          handle->custom_lib->set_supply_ladder(*handle->custom_ladder);
          handle->lib = &*handle->custom_lib;
          handle->lib_fp = handle->lib->fingerprint();
        }
      }
      const Library& lib = *handle->lib;
      Network mapped;
      if (!request.circuit.empty()) {
        const McncDescriptor* descriptor = find_mcnc(request.circuit);
        if (descriptor == nullptr)
          throw ProtocolError("unknown MCNC circuit '" + request.circuit +
                              "'");
        handle->circuit_seed =
            mix_seed(request.options.seed, descriptor->seed);
        mapped = build_mcnc_circuit(lib, *descriptor);
      } else {
        handle->circuit_seed = request.options.seed;
        Network submitted = request.format == "verilog"
                                ? read_verilog_string(request.netlist, lib)
                                : read_blif_string(request.netlist);
        if (design_fully_mapped(submitted) && submitted.num_gates() > 0) {
          mapped = std::move(submitted);
        } else {
          sweep_network(submitted);
          mapped = map_paper_setup(submitted, lib).mapped;
        }
        if (mapped.num_gates() == 0)
          throw ProtocolError("netlist has no gates to optimize");
      }
      handle->base_flow = circuit_flow(request.options.to_flow_options(),
                                       handle->circuit_seed);
      JobInit init = make_job_init(mapped, lib, handle->base_flow);
      handle->tspec = init.row.tspec_ns;
      handle->org_power_uw = init.row.org_power_uw;
      handle->design.emplace(
          make_flow_design(mapped, lib, handle->base_flow, handle->tspec));
      handle->design->adopt_activity(std::move(init.activity));
      const Network& net = handle->design->network();
      handle->original_cells.assign(net.size(), -1);
      net.for_each_gate(
          [&](const Node& n) { handle->original_cells[n.id] = n.cell; });
    } catch (...) {
      // Unpublish the placeholder; late lookups get "unknown handle",
      // exactly as if the open never happened.  Taking the registry
      // mutex while holding the (fresh, unshared-by-waiters-only)
      // handle mutex is safe: no path blocks on a handle mutex while
      // holding the registry mutex.
      std::lock_guard<std::mutex> lock(mutex_);
      --stats_.opened;
      auto it = handles_.find(name);
      if (it != handles_.end() && it->second == handle) {
        handles_.erase(it);
        stats_.open_now = handles_.size();
      }
      throw;
    }
    const std::size_t bytes = estimate_bytes(*handle);
    std::lock_guard<std::mutex> lock(mutex_);
    handle->bytes = bytes;
    stats_.resident_bytes += bytes;
    gc_locked(now);  // the new resident may push others over budget
  }

  // Attach path: take the handle mutex now (build path already holds
  // it) so the reply reads settled fields.  An attacher that raced a
  // build which then failed finds an unpublished, design-less handle.
  std::unique_lock<std::mutex> reply_lock;
  if (!build_lock.owns_lock()) {
    reply_lock = std::unique_lock<std::mutex>(handle->mutex);
    if (!handle->design) {
      std::lock_guard<std::mutex> lock(mutex_);
      --stats_.opened;
      throw ProtocolError("unknown design handle '" + name + "'");
    }
  }

  Json::Object fields;
  fields["design"] = Json(handle->name);
  fields["circuit"] = Json(handle->circuit);
  fields["attached"] = Json(attached);
  fields["gates"] = Json(handle->design->network().num_gates());
  fields["structural_version"] =
      Json(handle->design->network().structural_version());
  fields["tspec_ns"] = Json(handle->tspec);
  fields["org_power_uw"] = Json(handle->org_power_uw);
  fields["supplies"] = supplies_json(*handle->lib);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fields["refs"] = Json(static_cast<std::int64_t>(handle->refs));
  }
  return fields;
}

Json::Object DesignRegistry::edit(const EditRequest& request) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (!handle->design)  // raced a failed open
    throw ProtocolError("unknown design handle '" + request.design + "'");
  bool structural = false;
  int applied = 0;
  try {
    for (const DesignEdit& e : request.edits) {
      apply_edit(*handle, e, &structural);
      ++applied;
    }
  } catch (const ProtocolError& e) {
    // Edits before the failing one stay applied (README.md documents
    // the partial-application contract); the index pinpoints the rest.
    throw ProtocolError("edit " + std::to_string(applied) + ": " +
                        e.what());
  }
  const std::size_t bytes = estimate_bytes(*handle);
  {
    std::lock_guard<std::mutex> registry_lock(mutex_);
    stats_.edits += static_cast<std::uint64_t>(applied);
    stats_.resident_bytes += bytes - handle->bytes;
    handle->bytes = bytes;
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
  std::lock_guard<std::mutex> lock(handle->mutex);
  if (!handle->design)  // raced a failed open
    throw ProtocolError("unknown design handle '" + request.design + "'");
  Design& design = *handle->design;
  const Network& net = design.network();

  DesignReoptimizeResult out;

  if (request.specs.empty()) {
    // Evaluate mode: the ECO hot path.  Incremental reads the
    // maintained timer; full rebuilds a fresh Design from the current
    // network — i.e. exactly the stateless computation — and then
    // re-arms the timer for the next incremental round.
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

    const Clock::time_point mark = Clock::now();
    double power = 0.0;
    double arrival = 0.0;
    if (full) {
      Design fresh(net, *handle->lib, handle->tspec);
      fresh.set_activity_options(handle->base_flow.activity);
      fresh.set_freq_mhz(handle->base_flow.freq_mhz);
      for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id)
        if (net.is_valid(id) && design.level(id) != fresh.level(id))
          fresh.set_level(id, design.level(id));
      power = fresh.run_power().total();
      arrival = fresh.run_timing().worst_arrival;
      // Re-arm the session: timer rebuilt over the session design (same
      // state the fresh evaluation just measured), structural debt paid.
      handle->ista = std::make_unique<IncrementalSta>(
          design.timing_context(), handle->tspec);
      handle->structural_dirty = false;
    } else {
      if (!handle->ista)
        handle->ista = std::make_unique<IncrementalSta>(
            design.timing_context(), handle->tspec);
      power = design.run_power().total();
      arrival = handle->ista->result().worst_arrival;
    }
    if (trace) trace->add("evaluate", mark, Clock::now());

    out.fields["design"] = Json(handle->name);
    out.fields["mode"] = Json(full ? "full" : "incremental");
    out.fields["structural_version"] = Json(net.structural_version());
    out.fields["tspec_ns"] = Json(handle->tspec);
    out.fields["power_uw"] = Json(power);
    out.fields["arrival_ns"] = Json(arrival);
    out.fields["slack_ns"] = Json(handle->tspec - arrival);
    out.fields["meets_tspec"] = Json(arrival <= handle->tspec + 1e-9);
    out.fields["area_um2"] = Json(design.total_area());
    out.fields["low"] = Json(design.count_low());
    out.fields["level_converters"] = Json(design.count_lcs());
    out.fields["resized"] = Json(handle->count_resized());
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

  // Pipeline mode: re-run the specs from scratch on the edited netlist,
  // through the same cell engine (and the same result cache) as a
  // stateless optimize of this exact network.
  OptimizeRequest synth;
  synth.options = handle->options;
  synth.specs = request.specs;
  Clock::time_point mark = Clock::now();
  CacheKey key;
  // Content-addressed, not handle-addressed: the key hashes what the
  // network IS (topology + mapping), not which handle or how many edits
  // produced it, so identical states share cache entries across
  // handles, daemon restarts, and the stateless optimize path
  // (DESIGN.md).  Mapping is rehashed every time — set_cell edits move
  // it without bumping the structural version.
  key.topology = topology_hash(net);
  key.mapping = mapping_fingerprint(net);
  key.library = handle->lib_fp;
  key.options = fnv1a64(canonical_job_json(synth, handle->circuit_seed,
                                           lib_->supplies()));
  {
    // Pipeline reoptimizes are from-scratch runs; count them as full.
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++stats_.reoptimize_full;
  }
  out.fields["design"] = Json(handle->name);
  out.fields["mode"] = Json("pipeline");
  out.fields["structural_version"] = Json(net.structural_version());
  out.cache = "miss";
  if (request.use_cache && cache_) {
    ResultCache::Payload payload = cache_->get(key);
    if (payload) {
      if (trace) trace->add("cache_lookup", mark, Clock::now());
      out.body = std::move(payload);
      out.cache = "hit";
      return out;
    }
    if (disk_) {
      payload = disk_->load(key);
      if (payload) {
        cache_->put(key, payload);
        if (trace) trace->add("cache_lookup", mark, Clock::now());
        out.body = std::move(payload);
        out.cache = "disk";
        return out;
      }
    }
    if (trace) trace->add("cache_lookup", mark, Clock::now());
  }
  mark = Clock::now();
  const PipelineJobResult result =
      run_pipeline_job(net, *handle->lib, handle->base_flow,
                       handle->circuit_seed, request.specs);
  out.body = std::make_shared<const std::string>(
      Json(pipeline_body_object(result, trace)).dump());
  if (trace) trace->add("execute", mark, Clock::now());
  if (cache_) cache_->put(key, out.body);
  if (disk_) disk_->store(key, out.body);
  return out;
}

Json::Object DesignRegistry::sweep(const SweepRequest& request) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  // Snapshot under the handle lock, compute outside it: a long sweep
  // must not block edits (or the GC's try_lock probe) on this design.
  Network snapshot;
  SweepMatrixSpec spec;
  const Library* lib = nullptr;
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(handle->mutex);
    if (!handle->design)  // raced a failed open
      throw ProtocolError("unknown design handle '" + request.design +
                          "'");
    snapshot = handle->design->network();
    version = snapshot.structural_version();
    spec.base = handle->options.to_flow_options();
    spec.circuit_seed = handle->circuit_seed;
    lib = handle->lib;  // outlives the sweep via the shared_ptr
  }
  spec.ladders = request.ladders;
  for (double v : request.vlow)
    spec.ladders.push_back({lib->supplies().top(), v});
  spec.specs = request.specs;

  const std::function<Network(const Library&)> source =
      [&snapshot](const Library&) { return snapshot; };
  SweepMatrixResult result =
      run_sweep_matrix(source, *lib, spec, pool_);
  {
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++stats_.sweeps;
    stats_.sweep_cells += static_cast<std::uint64_t>(result.cells.size());
  }
  Json grid = sweep_matrix_json(result);
  Json::Object fields = std::move(grid.as_object());
  fields["design"] = Json(handle->name);
  fields["structural_version"] = Json(version);
  return fields;
}

Json::Object DesignRegistry::close(const CloseDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(request.design);
  if (it == handles_.end()) {
    auto tomb = tombstones_.find(request.design);
    if (tomb != tombstones_.end()) {
      switch (static_cast<Tombstone>(tomb->second)) {
        case kClosed:
          throw ProtocolError("design '" + request.design + "' is closed");
        case kExpired:
          throw ProtocolError("design '" + request.design +
                              "' expired after idle timeout");
        case kEvicted:
          throw ProtocolError("design '" + request.design +
                              "' was evicted under the design byte budget");
      }
    }
    throw ProtocolError("unknown design handle '" + request.design + "'");
  }
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
