#include "service/protocol.hpp"

#include <cstdio>
#include <set>
#include <utility>

#include "core/sweep_matrix.hpp"
#include "opt/option_schema.hpp"
#include "opt/pipeline.hpp"

namespace dvs {

namespace {

/// Rejects unknown keys so every accepted request has one canonical
/// meaning (and typos fail loudly instead of silently running defaults).
void check_known_keys(const Json::Object& object,
                      const std::set<std::string>& known,
                      const std::string& where) {
  for (const auto& [key, value] : object) {
    if (!known.count(key))
      throw ProtocolError("unknown field '" + key + "' in " + where);
  }
}

/// The protocol's job-option block, declared once: the same schema
/// parses, range-checks, and canonicalizes, with the error text the
/// protocol always used ("unknown field 'x' in options",
/// "<name> out of range").
const OptionSchema& job_options_schema() {
  static const OptionSchema kSchema = [] {
    OptionSchema s("options");
    s.seed("seed", &JobOptions::seed);
    s.number("freq_mhz", &JobOptions::freq_mhz, 0.0, 1e6,
             /*open_min=*/true);
    s.number("tspec_relax", &JobOptions::tspec_relax, 0.0, 100.0);
    s.integer("vectors", &JobOptions::vectors, 1, 1 << 22);
    s.custom(
        "supplies",
        [](void* opts, const Json& value) {
          // SupplyLadder validation is the schema for this field; its
          // SupplyError texts are the protocol's error messages.
          static_cast<JobOptions*>(opts)->supplies =
              supply_ladder_from_json(value).voltages();
        },
        [](const void* opts) {
          const auto& supplies =
              static_cast<const JobOptions*>(opts)->supplies;
          Json::Array rungs;
          for (double v : supplies) rungs.emplace_back(v);
          return Json(std::move(rungs));
        },
        [](const void* opts) {
          const auto& supplies =
              static_cast<const JobOptions*>(opts)->supplies;
          if (supplies.empty()) return true;  // library default
          try {
            SupplyLadder ladder(supplies);
            return true;
          } catch (const SupplyError&) {
            return false;
          }
        });
    return s;
  }();
  return kSchema;
}

JobOptions parse_options(const Json& json) {
  JobOptions options;
  job_options_schema().apply(&options, json.as_object());
  return options;
}

/// `algos`: paper algorithm names in any order, or "all", as the paper
/// specs they name in table order — so every ordering is one job.
std::vector<Json> parse_algos(const Json& json) {
  const std::vector<Json>& paper = paper_specs();
  std::vector<bool> enabled(paper.size(), false);
  for (const Json& algo : json.as_array()) {
    const std::string& name = algo.as_string();
    bool known = false;
    for (std::size_t i = 0; i < paper.size(); ++i) {
      if (name == "all" || name == paper[i].as_string()) {
        enabled[i] = true;
        known = true;
      }
    }
    if (!known) throw ProtocolError("unknown algorithm '" + name + "'");
  }
  std::vector<Json> specs;
  for (std::size_t i = 0; i < paper.size(); ++i)
    if (enabled[i]) specs.push_back(paper[i]);
  if (specs.empty()) throw ProtocolError("empty algorithm list");
  return specs;
}

/// The `algos` / `pipeline` pair of optimize, batch, and reoptimize
/// (mutually exclusive) into `specs`, which keeps its default when
/// neither is present.
void parse_specs(const Json& json, const std::string& type,
                 std::vector<Json>* specs) {
  const Json* algos = json.find("algos");
  if (algos) *specs = parse_algos(*algos);
  if (const Json* pipeline = json.find("pipeline")) {
    if (algos)
      throw ProtocolError(type + " takes 'algos' or 'pipeline', not both");
    Pipeline::from_spec(*pipeline);  // fail fast on bad specs
    *specs = {*pipeline};
  }
}

std::string parse_format(const Json& json) {
  const std::string& format = json.as_string();
  if (format != "blif" && format != "verilog")
    throw ProtocolError("format must be 'blif' or 'verilog'");
  return format;
}

/// The CircuitSource block of optimize and open_design.
void parse_circuit_source(const Json& json, const std::string& type,
                          CircuitSource* source) {
  if (const Json* v = json.find("circuit")) source->circuit = v->as_string();
  if (const Json* v = json.find("netlist")) source->netlist = v->as_string();
  if (source->circuit.empty() == source->netlist.empty())
    throw ProtocolError(type +
                        " needs exactly one of 'circuit' or 'netlist'");
  if (const Json* v = json.find("format")) source->format = parse_format(*v);
  if (const Json* v = json.find("options"))
    source->options = parse_options(*v);
}

Json num_field(double v) { return Json(v); }

std::uint64_t parse_deadline_ms(const Json& json) {
  const std::uint64_t deadline = json.as_uint();
  if (deadline > 86'400'000ULL)  // 24h: anything longer is a typo
    throw ProtocolError("deadline_ms out of range");
  return deadline;
}

/// Design-session handle fields: the handle grammar is shared by
/// open_design's optional `name` and every other verb's required
/// `design`.
std::string parse_design_name(const Json& json, const char* field) {
  const std::string& name = json.as_string();
  if (name.empty() || name.size() > 64)
    throw ProtocolError(std::string(field) +
                        " must be 1-64 characters of [A-Za-z0-9_.-]");
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok)
      throw ProtocolError(std::string(field) +
                          " must be 1-64 characters of [A-Za-z0-9_.-]");
  }
  return name;
}

std::string required_design(const Json& json, const char* where) {
  const Json* v = json.find("design");
  if (!v)
    throw ProtocolError(std::string(where) + " needs a 'design' handle");
  return parse_design_name(*v, "design");
}

DesignEdit parse_edit(const Json& json, std::size_t index) {
  if (!json.is_object())
    throw ProtocolError("edit " + std::to_string(index) +
                        " must be an object");
  check_known_keys(json.as_object(), {"op", "gate", "rung", "cell"},
                   "edit " + std::to_string(index));
  DesignEdit edit;
  const Json* op = json.find("op");
  if (!op)
    throw ProtocolError("edit " + std::to_string(index) + " without 'op'");
  const std::string& name = op->as_string();
  if (name == "rung")
    edit.op = DesignEdit::Op::kRung;
  else if (name == "cell")
    edit.op = DesignEdit::Op::kCell;
  else if (name == "upsize")
    edit.op = DesignEdit::Op::kUpsize;
  else if (name == "downsize")
    edit.op = DesignEdit::Op::kDownsize;
  else if (name == "insert_lc")
    edit.op = DesignEdit::Op::kInsertLc;
  else if (name == "remove_lc")
    edit.op = DesignEdit::Op::kRemoveLc;
  else
    throw ProtocolError("unknown edit op '" + name + "'");
  const Json* gate = json.find("gate");
  if (!gate)
    throw ProtocolError("edit " + std::to_string(index) +
                        " without 'gate'");
  edit.gate = *gate;
  if (edit.op == DesignEdit::Op::kRung) {
    const Json* rung = json.find("rung");
    if (!rung)
      throw ProtocolError("edit op 'rung' needs a 'rung' index");
    const std::int64_t value = rung->as_int();
    if (value < 0 || value > 7)  // SupplyLadder::kMaxRungs - 1
      throw ProtocolError("rung out of range");
    edit.rung = static_cast<int>(value);
  } else if (json.find("rung") != nullptr) {
    throw ProtocolError("'rung' only applies to edit op 'rung'");
  }
  if (edit.op == DesignEdit::Op::kCell) {
    const Json* cell = json.find("cell");
    if (!cell) throw ProtocolError("edit op 'cell' needs a 'cell' name");
    edit.cell = cell->as_string();
    if (edit.cell.empty()) throw ProtocolError("empty cell name");
  } else if (json.find("cell") != nullptr) {
    throw ProtocolError("'cell' only applies to edit op 'cell'");
  }
  return edit;
}

}  // namespace

FlowOptions JobOptions::to_flow_options() const {
  FlowOptions flow;
  flow.freq_mhz = freq_mhz;
  flow.tspec_relax = tspec_relax;
  flow.activity.num_vectors = vectors;
  flow.activity.seed = seed;  // re-derived per circuit by the job runner
  return flow;
}

Request parse_request(const std::string& line) {
  const Json json = Json::parse(line);
  if (!json.is_object()) throw ProtocolError("request must be an object");
  const Json* type_field = json.find("type");
  if (!type_field) throw ProtocolError("request without 'type'");
  const std::string& type = type_field->as_string();

  Request request;
  if (const Json* id = json.find("id")) request.id = *id;

  if (type == "ping" || type == "stats" || type == "metrics" ||
      type == "shutdown") {
    check_known_keys(json.as_object(), {"type", "id"}, type);
    request.type = type == "ping"      ? RequestType::kPing
                   : type == "stats"   ? RequestType::kStats
                   : type == "metrics" ? RequestType::kMetrics
                                       : RequestType::kShutdown;
    return request;
  }

  if (type == "optimize") {
    check_known_keys(json.as_object(),
                     {"type", "id", "circuit", "netlist", "format", "algos",
                      "pipeline", "options", "return_netlist", "use_cache",
                      "deadline_ms", "trace"},
                     "optimize");
    request.type = RequestType::kOptimize;
    OptimizeRequest& opt = request.optimize;
    parse_circuit_source(json, "optimize", &opt);
    parse_specs(json, "optimize", &opt.specs);
    if (const Json* v = json.find("return_netlist"))
      opt.return_netlist = v->as_bool();
    if (const Json* v = json.find("use_cache")) opt.use_cache = v->as_bool();
    if (const Json* v = json.find("deadline_ms"))
      opt.deadline_ms = parse_deadline_ms(*v);
    if (const Json* v = json.find("trace")) opt.trace = v->as_bool();
    if (opt.return_netlist && opt.specs.size() != 1)
      throw ProtocolError(
          "return_netlist requires exactly one algorithm");
    return request;
  }

  if (type == "register_worker") {
    check_known_keys(json.as_object(), {"type", "id", "name", "capacity"},
                     "register_worker");
    request.type = RequestType::kRegisterWorker;
    if (const Json* v = json.find("name"))
      request.register_worker.name = v->as_string();
    if (const Json* v = json.find("capacity")) {
      const std::int64_t capacity = v->as_int();
      if (capacity < 1 || capacity > 4096)
        throw ProtocolError("capacity out of range");
      request.register_worker.capacity = static_cast<int>(capacity);
    }
    return request;
  }

  if (type == "batch") {
    check_known_keys(json.as_object(),
                     {"type", "id", "circuits", "all", "max_gates", "algos",
                      "pipeline", "options", "use_cache", "deadline_ms",
                      "trace"},
                     "batch");
    request.type = RequestType::kBatch;
    BatchRequest& batch = request.batch;
    if (const Json* v = json.find("circuits"))
      for (const Json& name : v->as_array())
        batch.circuits.push_back(name.as_string());
    if (const Json* v = json.find("all")) batch.all = v->as_bool();
    if (const Json* v = json.find("max_gates")) {
      const std::int64_t max_gates = v->as_int();
      if (max_gates < 0 || max_gates > (1 << 30))
        throw ProtocolError("max_gates out of range");
      batch.max_gates = static_cast<int>(max_gates);
    }
    if (batch.circuits.empty() && !batch.all)
      throw ProtocolError("batch needs 'circuits' or 'all': true");
    if (!batch.circuits.empty() && batch.all)
      throw ProtocolError("batch takes 'circuits' or 'all', not both");
    parse_specs(json, "batch", &batch.specs);
    if (const Json* v = json.find("options"))
      batch.options = parse_options(*v);
    if (const Json* v = json.find("use_cache"))
      batch.use_cache = v->as_bool();
    if (const Json* v = json.find("deadline_ms"))
      batch.deadline_ms = parse_deadline_ms(*v);
    if (const Json* v = json.find("trace")) batch.trace = v->as_bool();
    return request;
  }

  if (type == "open_design") {
    check_known_keys(json.as_object(),
                     {"type", "id", "name", "circuit", "netlist", "format",
                      "options"},
                     "open_design");
    request.type = RequestType::kOpenDesign;
    OpenDesignRequest& open = request.open_design;
    if (const Json* v = json.find("name"))
      open.name = parse_design_name(*v, "name");
    parse_circuit_source(json, "open_design", &open);
    return request;
  }

  if (type == "edit") {
    check_known_keys(json.as_object(), {"type", "id", "design", "edits"},
                     "edit");
    request.type = RequestType::kEdit;
    request.edit.design = required_design(json, "edit");
    const Json* edits = json.find("edits");
    if (!edits || edits->as_array().empty())
      throw ProtocolError("edit needs a non-empty 'edits' array");
    const Json::Array& array = edits->as_array();
    for (std::size_t i = 0; i < array.size(); ++i)
      request.edit.edits.push_back(parse_edit(array[i], i));
    return request;
  }

  if (type == "reoptimize") {
    check_known_keys(json.as_object(),
                     {"type", "id", "design", "mode", "algos", "pipeline",
                      "use_cache", "trace"},
                     "reoptimize");
    request.type = RequestType::kReoptimize;
    ReoptimizeRequest& reopt = request.reoptimize;
    reopt.design = required_design(json, "reoptimize");
    if (const Json* v = json.find("mode")) {
      reopt.mode = v->as_string();
      if (reopt.mode != "auto" && reopt.mode != "incremental" &&
          reopt.mode != "full")
        throw ProtocolError(
            "mode must be 'auto', 'incremental', or 'full'");
    }
    parse_specs(json, "reoptimize", &reopt.specs);
    if (const Json* v = json.find("use_cache"))
      reopt.use_cache = v->as_bool();
    if (const Json* v = json.find("trace")) reopt.trace = v->as_bool();
    return request;
  }

  if (type == "sweep") {
    check_known_keys(json.as_object(),
                     {"type", "id", "design", "ladders", "vlow",
                      "area_budgets", "algos"},
                     "sweep");
    request.type = RequestType::kSweep;
    SweepRequest& sweep = request.sweep;
    sweep.design = required_design(json, "sweep");
    if (const Json* v = json.find("ladders"))
      for (const Json& ladder : v->as_array())
        sweep.ladders.push_back(supply_ladder_from_json(ladder).voltages());
    if (const Json* v = json.find("vlow"))
      for (const Json& entry : v->as_array()) {
        const double vlow = entry.as_double();
        if (vlow <= 0.0) throw ProtocolError("vlow must be positive");
        sweep.vlow.push_back(vlow);
      }
    std::vector<double> budgets;
    if (const Json* v = json.find("area_budgets"))
      for (const Json& entry : v->as_array()) {
        const double budget = entry.as_double();
        if (budget < 0.0 || budget > 10.0)
          throw ProtocolError("area budget out of range");
        budgets.push_back(budget);
      }
    std::vector<Json> algos = paper_specs();
    if (const Json* v = json.find("algos")) algos = parse_algos(*v);
    for (const Json& spec : algos) {
      if (spec.as_string() != "gscale" || budgets.empty()) {
        sweep.specs.push_back(spec);
        continue;
      }
      for (double budget : budgets)
        sweep.specs.emplace_back(gscale_budget_spec(budget));
    }
    return request;
  }

  if (type == "close_design") {
    check_known_keys(json.as_object(), {"type", "id", "design"},
                     "close_design");
    request.type = RequestType::kCloseDesign;
    request.close_design.design = required_design(json, "close_design");
    return request;
  }

  throw ProtocolError("unknown request type '" + type + "'");
}

std::string canonical_job_json(const OptimizeRequest& request,
                               std::uint64_t circuit_seed,
                               const SupplyLadder& default_supplies) {
  Json::Object object;
  Json::Array cell_array;
  for (const Json& spec : request.specs) {
    const Pipeline pipeline = resolve_cell(spec, circuit_seed);
    Json::Object entry;
    entry["label"] = Json(pipeline_label(pipeline));
    entry["passes"] = pipeline.canonical_json();
    cell_array.emplace_back(std::move(entry));
  }
  object["cells"] = Json(std::move(cell_array));
  object["circuit_seed"] = Json(circuit_seed);
  object["freq_mhz"] = Json(request.options.freq_mhz);
  object["tspec_relax"] = Json(request.options.tspec_relax);
  object["vectors"] = Json(request.options.vectors);
  // Always the *effective* ladder: an absent field, the explicit default
  // ladder, and any spelling of the same voltages canonicalize alike.
  const SupplyLadder effective =
      request.options.supplies.empty() ? default_supplies
                                       : SupplyLadder(request.options.supplies);
  object["supplies"] = effective.to_json();
  object["return_netlist"] = Json(request.return_netlist);
  if (request.return_netlist)
    object["netlist_format"] = Json(request.format);
  return Json(std::move(object)).dump();
}

Json report_json(const CircuitRunResult& row, bool with_cvs,
                 bool with_dscale, bool with_gscale) {
  Json::Object report;
  report["name"] = Json(row.name);
  report["gates"] = Json(row.num_gates);
  report["tspec_ns"] = num_field(row.tspec_ns);
  report["org_power_uw"] = num_field(row.org_power_uw);
  if (with_cvs) {
    Json::Object cvs;
    cvs["improve_pct"] = num_field(row.cvs_improve_pct);
    cvs[kLowGatesKey] = Json(row.cvs_low);
    report["cvs"] = Json(std::move(cvs));
  }
  if (with_dscale) {
    Json::Object dscale;
    dscale["improve_pct"] = num_field(row.dscale_improve_pct);
    dscale[kLowGatesKey] = Json(row.dscale_low);
    dscale["level_converters"] = Json(row.dscale_lcs);
    report["dscale"] = Json(std::move(dscale));
  }
  if (with_gscale) {
    Json::Object gscale;
    gscale["improve_pct"] = num_field(row.gscale_improve_pct);
    gscale[kLowGatesKey] = Json(row.gscale_low);
    gscale["resized"] = Json(row.gscale_resized);
    gscale["area_increase"] = num_field(row.gscale_area_increase);
    gscale["seconds"] = num_field(row.gscale_seconds);
    report["gscale"] = Json(std::move(gscale));
  }
  return Json(std::move(report));
}

Json::Object response_head(const std::string& type, const Json& id) {
  Json::Object fields;
  fields["type"] = Json(type);
  fields["id"] = id;
  return fields;
}

std::string error_response(const Json& id, const std::string& message,
                           const std::string& code) {
  Json::Object fields = response_head("error", id);
  fields["message"] = Json(message);
  if (!code.empty()) fields["code"] = Json(code);
  return finish_response(std::move(fields));
}

std::string finish_response(Json::Object fields) {
  return Json(std::move(fields)).dump() + "\n";
}

std::string finish_response_with_body(Json::Object head,
                                      const std::string& body) {
  std::string out = Json(std::move(head)).dump();  // "{...}", never "{}"
  if (body.size() > 2) {
    out.pop_back();  // drop the head's '}'
    out += ',';
    out.append(body, 1, std::string::npos);  // skip the body's '{'
  }
  out += '\n';
  return out;
}

std::string optimize_request_json(const OptimizeRequest& request) {
  Json::Object object;
  object["type"] = Json("optimize");
  if (!request.circuit.empty()) object["circuit"] = Json(request.circuit);
  if (!request.netlist.empty()) object["netlist"] = Json(request.netlist);
  object["format"] = Json(request.format);
  if (request.specs.size() == 1)
    object["pipeline"] = request.specs.front();
  else
    object["algos"] = Json(Json::Array(request.specs));
  Json::Object options;
  options["seed"] = Json(request.options.seed);
  options["freq_mhz"] = Json(request.options.freq_mhz);
  options["tspec_relax"] = Json(request.options.tspec_relax);
  options["vectors"] = Json(request.options.vectors);
  if (!request.options.supplies.empty()) {
    Json::Array rungs;
    for (double v : request.options.supplies) rungs.emplace_back(v);
    options["supplies"] = Json(std::move(rungs));
  }
  object["options"] = Json(std::move(options));
  object["return_netlist"] = Json(request.return_netlist);
  // The worker runs its own cache; a scheduler-side miss may still be a
  // worker-side hit, and the bodies are bit-identical either way.
  object["use_cache"] = Json(request.use_cache);
  return Json(std::move(object)).dump();
}

std::string fleet_job_line(std::uint64_t lease,
                           const std::string& request_json) {
  std::string out = "{\"type\":\"job\",\"lease\":" + std::to_string(lease) +
                    ",\"request\":";
  out += request_json;
  out += "}\n";
  return out;
}

std::string fleet_heartbeat_line(int load, int capacity) {
  Json::Object object;
  object["type"] = Json("heartbeat");
  object["load"] = Json(static_cast<std::int64_t>(load));
  object["capacity"] = Json(static_cast<std::int64_t>(capacity));
  return Json(std::move(object)).dump() + "\n";
}

std::string fleet_result_line(std::uint64_t lease, const std::string& body,
                              std::uint64_t checksum) {
  Json::Object object;
  object["type"] = Json("job_result");
  object["lease"] = Json(lease);
  object["checksum"] = Json(checksum_hex(checksum));
  object["body"] = Json(body);
  return Json(std::move(object)).dump() + "\n";
}

std::string fleet_error_line(std::uint64_t lease,
                             const std::string& message) {
  Json::Object object;
  object["type"] = Json("job_error");
  object["lease"] = Json(lease);
  object["message"] = Json(message);
  return Json(std::move(object)).dump() + "\n";
}

std::string checksum_hex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf, 16);
}

}  // namespace dvs
