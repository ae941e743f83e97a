// eco-edits: ECO design sessions in an in-process DesignRegistry.  Three
// MCNC designs (des, i10, C7552) open by name and a seeded 20k-gate
// hybrid circuit opens from inline BLIF.  One operation is one seeded point edit (rung
// flip, upsize or downsize) followed by an incremental evaluate
// reoptimize.  One edit in eight goes to the large design, so the median
// measures MCNC-sized edits and the 99th percentile large-design edits.
#include <memory>

#include "benchgen/mcnc.hpp"
#include "bench.hpp"
#include "cells.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "service/design_session.hpp"
#include "support/rng.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace perfbench {

namespace {

constexpr const char* kMcncDesigns[] = {"des", "i10", "C7552"};
/// Every k-th edit of a design is checked against a full reoptimize,
/// outside the timed window; large-design checks cost ~100 ms each.
constexpr int kCheckEveryMcnc = 64;
constexpr int kCheckEveryLarge = 256;

/// The benchmark's own copy of one opened design's gates: which cell and
/// rung each carries, so every generated edit is a valid one.
struct EcoDesign {
  std::string handle;
  bool large = false;
  std::vector<dvs::NodeId> gates;
  std::vector<int> cell;     // by node id
  std::vector<int> rung;     // by node id
  int edits = 0;
};

struct EcoInputs {
  std::unique_ptr<dvs::Library> lib;
  std::unique_ptr<dvs::DesignRegistry> registry;  // after lib: uses it
  std::vector<EcoDesign> designs;                 // MCNC first, large last
};

EcoDesign shadow_of(const dvs::Network& net, std::string handle, bool large) {
  EcoDesign d;
  d.handle = std::move(handle);
  d.large = large;
  d.cell.assign(net.size(), -1);
  d.rung.assign(net.size(), 0);
  net.for_each_gate([&](const dvs::Node& n) {
    d.gates.push_back(n.id);
    d.cell[n.id] = n.cell;
  });
  return d;
}

void open_design(EcoInputs& in, const dvs::OpenDesignRequest& request,
                 const dvs::Network& shadow, bool large, Tracer* tracer) {
  dvs::Json::Object opened;
  {
    Scope span(tracer, "service.design.open");
    opened = in.registry->open(request);
  }
  EcoDesign d = shadow_of(shadow, opened.at("design").as_string(), large);
  if (opened.at("gates").as_int() != static_cast<std::int64_t>(d.gates.size()))
    throw std::runtime_error("eco-edits: gate count of " + d.handle +
                             " differs from the local copy");
  // Arm the maintained incremental timer outside the timed window.
  dvs::ReoptimizeRequest arm;
  arm.design = d.handle;
  arm.mode = "full";
  in.registry->reoptimize(arm);
  in.designs.push_back(std::move(d));
}

/// The benchmark's own copies of the four designs, made once outside the
/// timed set-up: the MCNC stand-ins, and the large circuit parsed from
/// its inline BLIF and mapped the way the registry maps an unmapped
/// inline netlist, so the copy has the gate ids the registry will use.
std::vector<dvs::Network> make_shadows(std::uint64_t seed, Tracer* tracer) {
  const dvs::Library lib = dvs::build_compass_library();
  std::vector<dvs::Network> nets;
  for (const char* name : kMcncDesigns)
    nets.push_back(dvs::build_mcnc_circuit(lib, *dvs::find_mcnc(name)));
  const std::string blif = dvs::write_blif_string(dvs::build_hybrid_circuit(
      lib, scale_circuit_spec(seed, kScaleGates), "eco20k"));
  dvs::Network parsed;
  {
    Scope span(tracer, "netlist.blif_parse");
    parsed = dvs::read_blif_string(blif);
  }
  if (tracer) tracer->count("netlist.blif_bytes", static_cast<double>(blif.size()));
  dvs::sweep_network(parsed);
  nets.push_back(dvs::map_paper_setup(parsed, lib).mapped);
  if (tracer) {
    dvs::ActivityOptions activity;
    activity.seed = seed;
    Scope span(tracer, "power.activity");
    dvs::estimate_activity(nets.back(), activity);
  }
  return nets;
}

/// The timed set-up: library, registry, the large circuit generated and
/// written as BLIF, and the four opens (the MCNC ones by name).
std::unique_ptr<EcoInputs> open_designs(const std::vector<dvs::Network>& shadows,
                                        std::uint64_t seed, Tracer* tracer) {
  auto owned = std::make_unique<EcoInputs>();
  EcoInputs& in = *owned;
  in.lib = std::make_unique<dvs::Library>(dvs::build_compass_library());
  in.registry = std::make_unique<dvs::DesignRegistry>(in.lib.get(),
                                                      dvs::DesignSessionConfig{});
  for (std::size_t i = 0; i < std::size(kMcncDesigns); ++i) {
    dvs::OpenDesignRequest request;
    request.circuit = kMcncDesigns[i];
    request.options.seed = seed;
    open_design(in, request, shadows[i], false, tracer);
  }
  dvs::Network large;
  {
    Scope span(tracer, "benchgen.build");
    large = dvs::build_hybrid_circuit(
        *in.lib, scale_circuit_spec(seed, kScaleGates), "eco20k");
  }
  dvs::OpenDesignRequest request;
  request.netlist = dvs::write_blif_string(large);
  request.options.seed = seed;
  open_design(in, request, shadows.back(), true, tracer);
  return owned;
}

/// Draws the next valid point edit and applies it to the local copy.
dvs::EditRequest next_edit(EcoInputs& in, dvs::Rng& rng, EcoDesign** target) {
  const std::size_t mcnc = in.designs.size() - 1;
  EcoDesign& d = rng.next_below(8) == 0
                     ? in.designs.back()
                     : in.designs[rng.next_below(mcnc)];
  *target = &d;
  const dvs::NodeId gate = d.gates[rng.next_below(d.gates.size())];
  dvs::DesignEdit edit;
  edit.gate = dvs::Json(static_cast<std::int64_t>(gate));
  const int kind = rng.next_int(0, 3);  // half rung flips, the classic ECO
  const int up = in.lib->upsize(d.cell[gate]);
  const int down = in.lib->downsize(d.cell[gate]);
  if (kind >= 2 && (up >= 0 || down >= 0)) {
    const bool grow = (kind == 2 && up >= 0) || down < 0;
    edit.op = grow ? dvs::DesignEdit::Op::kUpsize : dvs::DesignEdit::Op::kDownsize;
    d.cell[gate] = grow ? up : down;
  } else {
    edit.op = dvs::DesignEdit::Op::kRung;
    edit.rung = (d.rung[gate] + 1) % in.lib->supplies().depth();
    d.rung[gate] = edit.rung;
  }
  dvs::EditRequest request;
  request.design = d.handle;
  request.edits.push_back(std::move(edit));
  ++d.edits;
  return request;
}

/// The incremental evaluate must equal a full recompute on every field.
void check_against_full(EcoInputs& in, const EcoDesign& d,
                        const dvs::Json::Object& incremental, Outcome& out) {
  dvs::ReoptimizeRequest full;
  full.design = d.handle;
  full.mode = "full";
  const dvs::Json::Object fields = in.registry->reoptimize(full).fields;
  out.attempt();
  for (const char* key : {"power_uw", "arrival_ns", "slack_ns", "area_um2",
                          "low", "level_converters"})
    out.check(incremental.at(key).as_double() == fields.at(key).as_double(),
              "eco-edits: " + d.handle + " edit " + std::to_string(d.edits) +
                  ": incremental " + key + " differs from a full reoptimize");
}

}  // namespace

void run_eco_edits(const Args& args, Outcome& out) {
  double setup_s = 0.0;
  Tracer setup_tracer;
  std::unique_ptr<EcoInputs> in;
  const std::vector<dvs::Network> shadows =
      make_shadows(args.seed, args.trace ? &setup_tracer : nullptr);
  if (args.trace) {
    in = open_designs(shadows, args.seed, &setup_tracer);
  } else {
    in = repeated_setup(3, &setup_s,
                        [&] { return open_designs(shadows, args.seed, nullptr); });
  }

  dvs::Rng rng(dvs::mix_seed(args.seed, 0xec0));
  Tracer tracer;
  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;
  std::vector<double> edit_us[2];
  std::vector<double> reopt_us[2];
  double check_ms = 0.0;
  const double untraced_s = args.trace ? args.seconds / 3 : args.seconds;
  const Clock::time_point start = Clock::now();
  for (bool traced = false;;) {
    if (!traced && op_ms.size() >= 100 && ms_since(start) >= untraced_s * 1e3) {
      if (!args.trace) break;
      traced = true;
    }
    if (traced && traced_op_ms.size() >= 100 && ms_since(start) >= args.seconds * 1e3)
      break;
    EcoDesign* d = nullptr;
    const dvs::EditRequest edit = next_edit(*in, rng, &d);
    dvs::ReoptimizeRequest evaluate;
    evaluate.design = d->handle;
    evaluate.mode = "incremental";
    out.attempt();
    dvs::DesignReoptimizeResult result;
    const Clock::time_point t0 = Clock::now();
    try {
      if (!traced) {
        in->registry->edit(edit);
        result = in->registry->reoptimize(evaluate);
        op_ms.push_back(ms_since(t0));
      } else {
        Scope root(&tracer, "bench.op");
        Clock::time_point t1;
        {
          Scope span(&tracer, "service.design.edit");
          in->registry->edit(edit);
          t1 = Clock::now();
        }
        {
          Scope span(&tracer, "service.design.reoptimize");
          result = in->registry->reoptimize(evaluate);
        }
        const Clock::time_point t2 = Clock::now();
        edit_us[d->large].push_back(ms_between(t0, t1) * 1e3);
        reopt_us[d->large].push_back(ms_between(t1, t2) * 1e3);
        traced_op_ms.push_back(ms_between(t0, t2));
      }
    } catch (const std::exception& e) {
      out.fail(std::string("eco-edits: ") + e.what());
      continue;
    }
    if (d->edits % (d->large ? kCheckEveryLarge : kCheckEveryMcnc) == 0) {
      const Clock::time_point c0 = Clock::now();
      check_against_full(*in, *d, result.fields, out);
      check_ms += ms_since(c0);
    }
  }
  const double busy_s = (ms_since(start) - check_ms) / 1e3;

  if (!args.trace) {
    out.set("setup_s", setup_s);
    set_latency_metrics(out, op_ms, busy_s);
    return;
  }
  for (const auto& [name, ms] : setup_tracer.self_ms()) out.set(name + "_ms", ms);
  for (const auto& [name, value] : setup_tracer.counters()) out.set(name, value);
  double traced_ms = 0.0;
  for (double ms : traced_op_ms) traced_ms += ms;
  set_trace_metrics(out, tracer, traced_ms, static_cast<int>(traced_op_ms.size()),
                    mean(op_ms));
  out.set("service.design.edit_us_mcnc", mean(edit_us[0]));
  out.set("service.design.edit_us_large", mean(edit_us[1]));
  out.set("service.design.reoptimize_us_mcnc", mean(reopt_us[0]));
  out.set("service.design.reoptimize_us_large", mean(reopt_us[1]));
}

}  // namespace perfbench
