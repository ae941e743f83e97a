#include "core/dscale.hpp"

#include <algorithm>

#include "graph/antichain.hpp"
#include "graph/reachability.hpp"
#include "power/eval_ledger.hpp"
#include "support/contracts.hpp"
#include "support/units.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"
#include "timing/kernel.hpp"

namespace dvs {

namespace {

/// What moving one gate to a deeper rung would change, evaluated against
/// the current committed state (conservative, per the paper's
/// check_timing).
struct LoweringEffect {
  bool feasible = false;      // fits the slack
  double gross_gain_uw = 0.0; // voltage-scaling gain on the gate alone
  double net_gain_uw = 0.0;   // gross gain minus level-converter cost
  double delay_increase = 0.0;
};

/// One (gate, committed rung, strictly deeper target rung) probe of a
/// batched scan round.
struct LoweringProbe {
  NodeId id = kNoNode;
  SupplyId from = 0;
  SupplyId to = 0;
};

/// Per-library constants of the lowering model, hoisted once per Dscale
/// run instead of re-derived per probe: the rung tables (voltage,
/// squared voltage, leakage factor) are filled from the same ladder
/// voltages the per-probe code used to look up, so every term below is
/// the same double it always was.  `rules` carries the timing kernel's
/// load rule for the design's compiled graph.
struct LoweringModel {
  LoweringModel(const Design& design, const TimingGraph& graph,
                const std::vector<double>& delay_factor)
      : lib(design.library()),
        ladder(lib.supplies()),
        rules(design.timing_context(), graph),
        factor(delay_factor),
        v_top(ladder.top()),
        freq(design.freq_mhz()),
        lc(lib.level_converter() >= 0 ? &lib.cell(lib.level_converter())
                                      : nullptr) {
    const VoltageModel& vm = lib.voltage_model();
    const int depth = ladder.depth();
    voltage.resize(depth);
    v2.resize(depth);
    leak.resize(depth);
    for (int r = 0; r < depth; ++r) {
      voltage[r] = ladder.voltage(static_cast<SupplyId>(r));
      v2[r] = voltage[r] * voltage[r];
      leak[r] = vm.leakage_factor(voltage[r]);
    }
  }

  const Library& lib;
  const SupplyLadder& ladder;
  timing_detail::NodeRules rules;
  const std::vector<double>& factor;
  // Converters restore to the top rung (timing and power model them
  // there), whatever rungs they bridge.
  double v_top;
  double freq;
  const Cell* lc;
  std::vector<double> voltage;
  std::vector<double> v2;
  std::vector<double> leak;
};

/// `graph` is the design's compiled timing graph with a current cell
/// snapshot; `model` carries the hoisted per-rung constants.  `from`
/// is the gate's committed rung, `to` the strictly deeper rung under
/// evaluation.
LoweringEffect evaluate_lowering(const Design& design, const TimingGraph& graph,
                                 const StaResult& sta,
                                 const Activity& activity,
                                 const LoweringModel& model, NodeId id,
                                 double slack_margin, SupplyId from,
                                 SupplyId to) {
  const Network& net = design.network();
  const Library& lib = model.lib;
  const Node& gate = net.node(id);
  DVS_EXPECTS(gate.is_gate() && gate.cell >= 0);
  DVS_EXPECTS(from < to);
  const Cell& cell = lib.cell(gate.cell);
  const double v_top = model.v_top;
  const double f_from = model.factor[from];
  const double f_to = model.factor[to];
  const Cell* lc = model.lc;

  // ---- fanout split after lowering -------------------------------------
  // The kernel's load rule at each rung: gate fanouts left on strictly
  // shallower rungs than the gate's rung sit behind its converter;
  // same-or-deeper gates and output ports stay direct.  At `from` it
  // reconstructs the converter the gate may *already* carry (possible on
  // 3+-rung ladders), so the timing/power terms below are true deltas,
  // not full new-converter charges.
  const auto caps = graph.fanout_pin_caps(id);
  const auto cap = [&](std::size_t e) { return caps[e]; };
  const auto behind = [&](SupplyId rung) {
    return [&, rung](const TimingGraph::FanoutPin& p) {
      return graph.is_gate(p.sink) &&
             SupplyLadder::converter_needed(rung, design.level(p.sink));
    };
  };
  if (lc == nullptr) {
    const auto pins = graph.fanout_pins(id);
    if (std::any_of(pins.begin(), pins.end(), behind(to)))
      return {};  // no converter available: infeasible
  }
  const timing_detail::LoadSplit lowered =
      model.rules.load(id, cap, behind(to));
  const timing_detail::LoadSplit committed =
      from == kTopRung ? timing_detail::LoadSplit{}  // carries no converter
                       : model.rules.load(id, cap, behind(from));
  const bool needs_lc = lowered.lc_pins > 0;
  const bool had_lc = committed.lc_pins > 0;
  const double new_direct = lowered.direct;
  const double new_lc_load = lowered.lc;
  const double old_lc_load = committed.lc;

  // ---- timing -----------------------------------------------------------
  double self_increase = 0.0;
  for (const TimingArc& arc : cell.arcs) {
    const double old_rise =
        f_from * (arc.intrinsic_rise + arc.resistance_rise * sta.load[id]);
    const double old_fall =
        f_from * (arc.intrinsic_fall + arc.resistance_fall * sta.load[id]);
    const double new_rise =
        f_to * (arc.intrinsic_rise + arc.resistance_rise * new_direct);
    const double new_fall =
        f_to * (arc.intrinsic_fall + arc.resistance_fall * new_direct);
    self_increase = std::max(self_increase, new_rise - old_rise);
    self_increase = std::max(self_increase, new_fall - old_fall);
  }
  // Converter delay as a delta: the committed arrival/required state
  // (and therefore sta.slack) already absorbs the old converter, so a
  // deepening move pays only the growth of the restored cone.
  double lc_delay = 0.0;
  if (needs_lc) {
    const RiseFall d = arc_delay(lib, *lc, 0, v_top, new_lc_load);
    lc_delay = d.max();
    if (had_lc)
      lc_delay -= arc_delay(lib, *lc, 0, v_top, old_lc_load).max();
  }
  LoweringEffect effect;
  effect.delay_increase =
      std::max(0.0, self_increase) + std::max(0.0, lc_delay);
  effect.feasible =
      effect.delay_increase + slack_margin <= sta.slack[id];

  // ---- power ------------------------------------------------------------
  const double a = activity.alpha01[id];
  const double f = model.freq;
  const double vf2 = model.v2[from];
  const double vt2 = model.v2[to];
  double before =
      a * f * (sta.load[id] + cell.internal_cap) * vf2 *
          kSwitchPowerToMicrowatt +
      cell.leakage * model.leak[from];
  if (had_lc) {
    // The committed state already pays for a converter; count it on the
    // before side so the move is scored on the converter *growth* only.
    before += a * f * (old_lc_load + lc->internal_cap) *
                  (v_top * v_top) * kSwitchPowerToMicrowatt +
              lc->leakage;
  }
  const double after_gate =
      a * f * (new_direct + cell.internal_cap) * vt2 *
          kSwitchPowerToMicrowatt +
      cell.leakage * model.leak[to];
  double lc_cost = 0.0;
  if (needs_lc) {
    // Everything behind the converter (the rerouted pins, its wire, its
    // internal node) still swings at the top rung, plus the converter
    // leaks.
    lc_cost = a * f * (new_lc_load + lc->internal_cap) * (v_top * v_top) *
                  kSwitchPowerToMicrowatt +
              lc->leakage;
  }
  // Paper-literal weight: "the power reduction when Vlow is applied" —
  // the gate's present switched capacitance scaled by Vfrom^2 - Vto^2.
  effect.gross_gain_uw = a * f * (sta.load[id] + cell.internal_cap) *
                         (vf2 - vt2) * kSwitchPowerToMicrowatt;
  // True delta including the converter overhead and the load reshuffle.
  effect.net_gain_uw = before - after_gate - lc_cost;
  return effect;
}

struct Candidate {
  NodeId id;
  double gain;
  SupplyId from;  // committed rung at selection time
  SupplyId to;    // deepest feasible rung
};

/// Moves the selected gates to their target rungs, then verifies the
/// constraint and reverts the cheapest members if the conservative
/// per-candidate model missed a second-order interaction (e.g. a fanin's
/// converter losing load).  The incremental timer makes each
/// commit/revert O(affected) instead of a full re-analysis.
int commit_with_repair(Design& design, IncrementalSta& timer,
                       std::vector<Candidate> selected) {
  if (selected.empty()) return 0;
  for (const Candidate& c : selected) {
    design.set_level(c.id, c.to);
    timer.on_node_changed(c.id);
  }
  std::sort(selected.begin(), selected.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.gain < b.gain;
            });
  std::size_t reverted = 0;
  while (!timer.result().meets_constraint(1e-9) &&
         reverted < selected.size()) {
    design.set_level(selected[reverted].id, selected[reverted].from);
    timer.on_node_changed(selected[reverted].id);
    ++reverted;
  }
  DVS_ASSERT(timer.result().meets_constraint(1e-6));
  return static_cast<int>(selected.size() - reverted);
}

}  // namespace

/// Raises boundary drivers to the shallowest rung that clears their
/// converter while doing so reduces total power.  Raising a gate speeds
/// it up, but a converter can migrate onto a still-deep fanin, so timing
/// is re-verified per raise (incrementally: each trial touches one gate's
/// neighborhood); the fixpoint loop then reconsiders the migrated
/// boundary.  Each trial is scored on an evaluation ledger, whose total
/// equals a full run_power's bit for bit.
int trim_boundary(Design& design, IncrementalSta& timer) {
  const Network& net = design.network();
  EvalLedger ledger(design.power_context());
  const auto move = [&](NodeId id, SupplyId level) {
    design.set_level(id, level);
    timer.on_node_changed(id);
    ledger.on_node_changed(id);
  };
  int raised_total = 0;
  double power = ledger.totals().power.total();
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<NodeId> boundary;
    net.for_each_gate([&](const Node& g) {
      if (design.needs_lc(g.id)) boundary.push_back(g.id);
    });
    for (NodeId id : boundary) {
      const SupplyId previous = design.level(id);
      // The shallowest gate fanout bounds the raise: going exactly there
      // removes the converter with the smallest speed/energy give-back.
      SupplyId raised = previous;
      for (NodeId fo : net.node(id).fanouts) {
        const Node& sink = net.node(fo);
        if (sink.is_gate()) raised = std::min(raised, design.level(fo));
      }
      if (raised == previous) continue;  // boundary moved under the loop
      move(id, raised);
      const double trial = ledger.totals().power.total();
      if (trial < power - 1e-12 &&
          timer.result().meets_constraint(1e-9)) {
        power = trial;
        ++raised_total;
        changed = true;
      } else {
        move(id, previous);
      }
    }
  }
  return raised_total;
}

DscaleResult run_dscale(Design& design, const DscaleOptions& options) {
  DscaleResult result;
  if (options.run_initial_cvs)
    result.cvs_lowered = run_cvs(design, options.cvs).num_lowered;

  const Network& net = design.network();
  const Activity& activity = design.activity();
  const Library& lib = design.library();
  const SupplyLadder& ladder = lib.supplies();
  const SupplyId deepest = ladder.deepest();
  const std::vector<double> factor =
      ladder.delay_factors(lib.voltage_model());
  // The candidate scans read pin caps off the compiled graph; Dscale
  // itself never resizes, so one sync up front keeps the snapshot
  // current for the whole run.
  const TimingGraph& graph = design.timing_graph();
  graph.sync_cells();
  const LoweringModel model(design, graph, factor);

  // One incremental timer lives across all rounds: candidate collection
  // reads its current state, and every commit/revert/trim below notifies
  // it instead of re-running the full STA.
  IncrementalSta timer(design.timing_context(), design.tspec());

  for (;;) {
    if (options.max_rounds > 0 && result.rounds >= options.max_rounds)
      break;
    const StaResult& sta = timer.result();

    // getSlkSet + check_timing + weight_with_power_gain, fused and
    // batched: collect every gate whose move to a deeper rung fits its
    // slack with positive gain, taking the deepest feasible rung per
    // gate.  Instead of walking each gate's rung ladder independently,
    // the scan runs deepest-first rounds over one shared target rung —
    // each round probes every unresolved gate at that rung with the
    // model constants hoisted — and a gate
    // resolved in an earlier (deeper) round drops out, which is exactly
    // the per-gate "deepest feasible wins" break.  Probe math and probe
    // set are unchanged, so the candidate list is identical.
    std::vector<Candidate> candidates;
    std::vector<NodeId> eligible;
    net.for_each_gate([&](const Node& gate) {
      const SupplyId current = design.level(gate.id);
      if (gate.cell < 0 || current == deepest) return;
      if (sta.slack[gate.id] <= options.slack_margin) return;
      eligible.push_back(gate.id);
    });
    std::vector<Candidate> pick(net.size());
    std::vector<char> resolved(net.size(), 0);
    for (SupplyId target = deepest; target > kTopRung; --target) {
      for (NodeId id : eligible) {
        const SupplyId current = design.level(id);
        if (resolved[id] != 0 || current >= target) continue;
        const LoweringEffect effect =
            evaluate_lowering(design, graph, sta, activity, model, id,
                              options.slack_margin, current, target);
        const double weight = options.lc_aware_weights
                                  ? effect.net_gain_uw
                                  : effect.gross_gain_uw;
        if (effect.feasible && weight > options.min_gain_uw) {
          pick[id] = {id, weight, current, target};
          resolved[id] = 1;
        }
      }
    }
    for (NodeId id : eligible)
      if (resolved[id] != 0) candidates.push_back(pick[id]);
    if (candidates.empty()) break;
    ++result.rounds;

    std::vector<Candidate> selected;
    if (options.selector == DscaleOptions::Selector::kMwisFlow) {
      // Maximum-weight independent set on the transitive graph == maximum
      // weight antichain w.r.t. netlist reachability.  Building the flow
      // network over the original DAG keeps it O(n + e).
      AntichainProblem problem;
      problem.num_nodes = net.size();
      problem.weight.assign(net.size(), 0.0);
      std::vector<const Candidate*> by_id(net.size(), nullptr);
      for (const Candidate& c : candidates) {
        problem.weight[c.id] = c.gain;
        by_id[c.id] = &c;
      }
      net.for_each_node([&](const Node& n) {
        for (NodeId fo : n.fanouts) problem.edges.emplace_back(n.id, fo);
      });
      const AntichainResult mwis =
          max_weight_antichain(problem, options.flow_algo);
      for (int v : mwis.selected) selected.push_back(*by_id[v]);
    } else {
      // Greedy baseline for the ablation: highest gain first, skip
      // anything comparable to an already-picked node.
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.gain > b.gain;
                });
      const Reachability reach(net);
      for (const Candidate& c : candidates) {
        bool independent = true;
        for (const Candidate& s : selected)
          if (reach.comparable(c.id, s.id)) independent = false;
        if (independent) selected.push_back(c);
      }
    }
    const int committed =
        commit_with_repair(design, timer, std::move(selected));
    result.mwis_lowered += committed;
    if (committed == 0) break;  // nothing stuck: avoid spinning
  }
  if (options.trim_unprofitable)
    result.mwis_lowered -= trim_boundary(design, timer);
  return result;
}

}  // namespace dvs
