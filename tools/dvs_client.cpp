// dvs-client — command-line client for the dvsd optimization daemon.
//
//   $ dvs-client --port 7117 ping
//   $ dvs-client --port 7117 optimize --circuit b9
//   $ dvs-client --port 7117 optimize my.blif --algo dscale --return-netlist
//   $ dvs-client --unix /tmp/dvsd.sock batch --all --max-gates 300
//   $ dvs-client --port 7117 stats
//   $ dvs-client --port 7117 shutdown
//
// Default output is a human summary; --json prints the daemon's raw
// NDJSON responses unmodified (one per line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "library/supply.hpp"
#include "service/protocol.hpp"
#include "support/backoff.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

#include <unistd.h>

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: dvs-client [--port N | --unix PATH] [--host IP] [--json]\n"
      "                  [--retries N] [--backoff-ms B] COMMAND [args]\n"
      "\n"
      "  --retries N     reconnect and resubmit up to N times when the\n"
      "                  connection is refused/reset or the daemon answers\n"
      "                  a structured 'overloaded' error (default 0)\n"
      "  --backoff-ms B  base of the exponential retry backoff with\n"
      "                  jitter (default 200)\n"
      "\n"
      "commands:\n"
      "  ping                       round-trip check\n"
      "  stats  (or --stats)        cache/pool/session counters\n"
      "  metrics (or --metrics)     Prometheus text exposition, verbatim\n"
      "  shutdown                   stop the daemon\n"
      "  optimize FILE | --circuit NAME\n"
      "      [--format blif|verilog]   input format of FILE (default blif)\n"
      "      [--algo cvs|dscale|gscale|all]   (default all)\n"
      "      [--pipeline SPEC]         registry pipeline instead of --algo,\n"
      "                                e.g. 'cvs | gscale(area_budget=0.05)"
      " | dscale'\n"
      "      [--seed S] [--vectors N] [--freq-mhz F] [--tspec-relax R]\n"
      "      [--supplies V1,V2,...]    supply ladder to optimize at,\n"
      "                                strictly descending (e.g. "
      "5.0,4.3,3.6)\n"
      "      [--return-netlist]        embed the optimized netlist\n"
      "      [--no-cache]              skip the cache lookup\n"
      "      [--deadline-ms N]         fail fast if still queued after N ms\n"
      "      [--trace]                 request per-phase spans in the reply\n"
      "  batch --circuits a,b,c | --all [--max-gates N]\n"
      "      [--algo ... | --pipeline SPEC] [--seed S] [--vectors N] "
      "[--supplies L] [--no-cache] [--deadline-ms N] [--trace]\n"
      "  --session FILE             scripted ECO session (FILE or '-' for\n"
      "                             stdin); one command per line:\n"
      "      open CIRCUIT|FILE.blif [as NAME]   open a design handle\n"
      "      edit rung GATE R | edit cell GATE CELL\n"
      "      edit upsize|downsize|insert_lc|remove_lc GATE\n"
      "      reopt [auto|incremental|full] [algos L | pipeline SPEC]\n"
      "      sweep [vlow V1,V2,..] [budgets B1,B2,..] [algos L]\n"
      "      close\n"
      "      # comment; blank lines skipped; lines starting with '{' are\n"
      "      # sent verbatim as one NDJSON request.  Verbs after `open`\n"
      "      # target the last opened handle automatically.\n",
      out);
}

struct Cli {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string unix_path;
  bool raw_json = false;
  int retries = 0;
  int backoff_ms = 200;
};

dvs::Socket connect(const Cli& cli) {
  if (!cli.unix_path.empty())
    return dvs::Socket::connect_unix(cli.unix_path);
  if (cli.port < 0)
    throw dvs::SocketError("no --port or --unix given");
  return dvs::Socket::connect_tcp(cli.host, cli.port);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const dvs::Json* get(const dvs::Json& json, const char* key) {
  return json.find(key);
}

double dbl(const dvs::Json& json, const char* key, double fallback = 0) {
  const dvs::Json* v = json.find(key);
  return v ? v->as_double() : fallback;
}

void print_algo(const dvs::Json& report, const char* name) {
  const dvs::Json* algo = report.find(name);
  if (!algo) return;
  std::printf("  %-7s improve %6.2f%%  low %4lld", name,
              dbl(*algo, "improve_pct"),
              static_cast<long long>(algo->find("low")->as_int()));
  if (const dvs::Json* lcs = algo->find("level_converters"))
    std::printf("  LCs %lld", static_cast<long long>(lcs->as_int()));
  if (const dvs::Json* resized = algo->find("resized"))
    std::printf("  resized %lld  area +%.3f",
                static_cast<long long>(resized->as_int()),
                dbl(*algo, "area_increase"));
  std::printf("\n");
}

/// Per-phase spans of a traced response, indented under the result line.
void print_trace(const dvs::Json& response) {
  const dvs::Json* trace = get(response, "trace");
  if (!trace) return;
  for (const dvs::Json& span : trace->as_array()) {
    const long long depth = span.find("depth")->as_int();
    std::printf("  %*s%-28s %9.3f ms  @ %.3f\n",
                static_cast<int>(2 * depth), "",
                span.find("name")->as_string().c_str(),
                dbl(span, "dur_ms"), dbl(span, "start_ms"));
  }
}

/// Pretty-prints one response line.  Returns false on {"type":"error"}.
bool print_response(const std::string& line) {
  const dvs::Json json = dvs::Json::parse(line);
  const std::string type =
      get(json, "type") ? get(json, "type")->as_string() : "?";
  if (type == "error") {
    const dvs::Json* message = get(json, "message");
    const dvs::Json* code = get(json, "code");
    std::fprintf(stderr, "error%s%s%s: %s\n", code ? " [" : "",
                 code ? code->as_string().c_str() : "", code ? "]" : "",
                 message ? message->as_string().c_str() : line.c_str());
    return false;
  }
  if (type == "pong") {
    std::printf("pong\n");
  } else if (type == "metrics") {
    // The exposition text is the payload; print it verbatim so the
    // output pipes straight into promtool / grep.
    std::fputs(get(json, "text")->as_string().c_str(), stdout);
  } else if (type == "bye") {
    std::printf("daemon stopping\n");
  } else if (type == "stats") {
    const dvs::Json& cache = *get(json, "cache");
    std::printf("cache: %llu hits / %llu misses / %llu evictions / "
                "%llu rejected | %llu entries, %.1f/%.1f MiB\n",
                static_cast<unsigned long long>(
                    cache.find("hits")->as_uint()),
                static_cast<unsigned long long>(
                    cache.find("misses")->as_uint()),
                static_cast<unsigned long long>(
                    cache.find("evictions")->as_uint()),
                static_cast<unsigned long long>(
                    cache.find("rejected")->as_uint()),
                static_cast<unsigned long long>(
                    cache.find("entries")->as_uint()),
                static_cast<double>(cache.find("bytes")->as_uint()) /
                    (1 << 20),
                static_cast<double>(
                    cache.find("capacity_bytes")->as_uint()) /
                    (1 << 20));
    if (const dvs::Json* disk = get(json, "disk")) {
      if (disk->find("enabled")->as_bool())
        std::printf("disk:  %llu hits / %llu misses | %llu writes "
                    "(%llu errors), %.1f MiB written\n",
                    static_cast<unsigned long long>(
                        disk->find("hits")->as_uint()),
                    static_cast<unsigned long long>(
                        disk->find("misses")->as_uint()),
                    static_cast<unsigned long long>(
                        disk->find("writes")->as_uint()),
                    static_cast<unsigned long long>(
                        disk->find("write_errors")->as_uint()),
                    static_cast<double>(
                        disk->find("bytes_written")->as_uint()) /
                        (1 << 20));
      else
        std::printf("disk:  (no cache dir)\n");
    }
    if (const dvs::Json* resolver = get(json, "resolver"))
      std::printf("resolver: %llu inline parses / %llu memo hits | "
                  "%llu texts, %.1f MiB\n",
                  static_cast<unsigned long long>(
                      resolver->find("inline_parses")->as_uint()),
                  static_cast<unsigned long long>(
                      resolver->find("memo_hits")->as_uint()),
                  static_cast<unsigned long long>(
                      resolver->find("memo_entries")->as_uint()),
                  static_cast<double>(
                      resolver->find("memo_bytes")->as_uint()) /
                      (1 << 20));
    if (const dvs::Json* pool = get(json, "pool")) {
      std::printf("pool:  %lld threads, %lld queued+running "
                  "(peak %lld, watermark %llu) | %llu tasks | "
                  "%llu overloaded, %llu deadline-expired\n",
                  static_cast<long long>(pool->find("threads")->as_int()),
                  static_cast<long long>(pool->find("depth")->as_int()),
                  static_cast<long long>(
                      pool->find("peak_depth")->as_int()),
                  static_cast<unsigned long long>(
                      pool->find("watermark")->as_uint()),
                  static_cast<unsigned long long>(
                      pool->find("tasks_executed")->as_uint()),
                  static_cast<unsigned long long>(
                      pool->find("overload_rejections")->as_uint()),
                  static_cast<unsigned long long>(
                      pool->find("deadline_expired")->as_uint()));
    }
    if (const dvs::Json* sessions = get(json, "sessions"))
      std::printf("sessions: %llu active / %llu total\n",
                  static_cast<unsigned long long>(
                      sessions->find("active")->as_uint()),
                  static_cast<unsigned long long>(
                      sessions->find("total")->as_uint()));
    if (const dvs::Json* designs = get(json, "designs"))
      std::printf(
          "designs: %llu open (%.1f MiB resident) | %llu opened, "
          "%llu closed, %llu expired, %llu evicted | %llu edits | "
          "reopt %llu incr / %llu full | %llu sweeps (%llu cells)\n",
          static_cast<unsigned long long>(
              designs->find("open")->as_uint()),
          static_cast<double>(
              designs->find("resident_bytes")->as_uint()) /
              (1 << 20),
          static_cast<unsigned long long>(
              designs->find("opened")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("closed")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("expired")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("evicted")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("edits")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("reoptimize_incremental")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("reoptimize_full")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("sweeps")->as_uint()),
          static_cast<unsigned long long>(
              designs->find("sweep_cells")->as_uint()));
    const dvs::Json& jobs = *get(json, "jobs");
    std::printf("jobs: %llu completed, %llu failed | requests %llu | "
                "connections %llu | threads %lld | up %.1fs\n",
                static_cast<unsigned long long>(
                    jobs.find("completed")->as_uint()),
                static_cast<unsigned long long>(
                    jobs.find("failed")->as_uint()),
                static_cast<unsigned long long>(
                    get(json, "requests")->as_uint()),
                static_cast<unsigned long long>(
                    get(json, "connections")->as_uint()),
                static_cast<long long>(get(json, "threads")->as_int()),
                dbl(json, "uptime_seconds"));
    if (const dvs::Json* version = get(json, "version"))
      std::printf("dvsd %s\n", version->as_string().c_str());
  } else if (type == "result" || type == "batch_item") {
    if (const dvs::Json* error = get(json, "error")) {
      std::fprintf(stderr, "error (%s): %s\n",
                   get(json, "name")->as_string().c_str(),
                   error->as_string().c_str());
      return false;
    }
    const dvs::Json& report = *get(json, "report");
    std::printf("%s: %lld gates, tspec %.3f ns, original %.2f uW  [%s, "
                "%.1f ms]\n",
                report.find("name")->as_string().c_str(),
                static_cast<long long>(report.find("gates")->as_int()),
                dbl(report, "tspec_ns"), dbl(report, "org_power_uw"),
                get(json, "cache")->as_string().c_str(),
                dbl(json, "wall_ms"));
    print_algo(report, "cvs");
    print_algo(report, "dscale");
    print_algo(report, "gscale");
    // Pipeline cells (anything that is not a paper algorithm column)
    // print their full per-pass trajectory.
    if (const dvs::Json* trajectory = get(json, "trajectory")) {
      for (const dvs::Json& cell : trajectory->as_array()) {
        const std::string& label = cell.find("label")->as_string();
        if (label == "cvs" || label == "dscale" || label == "gscale")
          continue;
        std::printf("  %s: %s  improve %.2f%%\n", label.c_str(),
                    cell.find("spec")->as_string().c_str(),
                    dbl(cell, "improve_pct"));
        int position = 0;
        for (const dvs::Json& pass : cell.find("passes")->as_array())
          std::printf("    [%d] %-8s power %9.3f uW  arrival %7.4f ns"
                      "  area %9.1f um2  low %4lld  touched %4lld\n",
                      position++,
                      pass.find("pass")->as_string().c_str(),
                      dbl(pass, "power_uw"), dbl(pass, "arrival_ns"),
                      dbl(pass, "area_um2"),
                      static_cast<long long>(pass.find("low")->as_int()),
                      static_cast<long long>(
                          pass.find("gates_touched")->as_int()));
      }
    }
    print_trace(json);
    if (const dvs::Json* netlist = get(json, "netlist"))
      std::printf("--- optimized netlist ---\n%s",
                  netlist->as_string().c_str());
  } else if (type == "design_opened") {
    std::printf("opened %s: %s, %lld gates, tspec %.3f ns, "
                "original %.2f uW, v%llu, refs %lld%s\n",
                get(json, "design")->as_string().c_str(),
                get(json, "circuit")->as_string().c_str(),
                static_cast<long long>(get(json, "gates")->as_int()),
                dbl(json, "tspec_ns"), dbl(json, "org_power_uw"),
                static_cast<unsigned long long>(
                    get(json, "structural_version")->as_uint()),
                static_cast<long long>(get(json, "refs")->as_int()),
                get(json, "attached")->as_bool() ? " (attached)" : "");
  } else if (type == "edited") {
    std::printf("edited %s: %lld edit%s applied%s, v%llu, %lld gates\n",
                get(json, "design")->as_string().c_str(),
                static_cast<long long>(get(json, "applied")->as_int()),
                get(json, "applied")->as_int() == 1 ? "" : "s",
                get(json, "structural")->as_bool() ? " (structural)" : "",
                static_cast<unsigned long long>(
                    get(json, "structural_version")->as_uint()),
                static_cast<long long>(get(json, "gates")->as_int()));
  } else if (type == "reoptimized") {
    if (const dvs::Json* report = get(json, "report")) {
      // Pipeline mode carries the full optimize result body.
      std::printf("reoptimized %s [pipeline, %s, %.1f ms]\n",
                  get(json, "design")->as_string().c_str(),
                  get(json, "cache")->as_string().c_str(),
                  dbl(json, "wall_ms"));
      print_algo(*report, "cvs");
      print_algo(*report, "dscale");
      print_algo(*report, "gscale");
    } else {
      std::printf(
          "reoptimized %s [%s, %.1f ms]: power %.3f uW "
          "(improve %.2f%%)  arrival %.4f ns vs tspec %.4f ns (%s)  "
          "low %lld  LCs %lld  resized %lld  area %.1f um2\n",
          get(json, "design")->as_string().c_str(),
          get(json, "mode")->as_string().c_str(), dbl(json, "wall_ms"),
          dbl(json, "power_uw"), dbl(json, "improve_pct"),
          dbl(json, "arrival_ns"), dbl(json, "tspec_ns"),
          get(json, "meets_tspec")->as_bool() ? "meets" : "VIOLATES",
          static_cast<long long>(get(json, "low")->as_int()),
          static_cast<long long>(
              get(json, "level_converters")->as_int()),
          static_cast<long long>(get(json, "resized")->as_int()),
          dbl(json, "area_um2"));
    }
    print_trace(json);
  } else if (type == "sweep_result") {
    std::printf("sweep %s: %llu cells, %.1f ms\n",
                get(json, "design")->as_string().c_str(),
                static_cast<unsigned long long>(
                    get(json, "count")->as_uint()),
                dbl(json, "wall_ms"));
    for (const dvs::Json& cell : get(json, "cells")->as_array()) {
      std::string ladder;
      for (const dvs::Json& v : cell.find("supplies")->as_array()) {
        if (!ladder.empty()) ladder += ',';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.2f", v.as_double());
        ladder += buf;
      }
      std::printf("  %-7s %-24s", cell.find("algo")->as_string().c_str(),
                  ladder.c_str());
      if (cell.find("area_budget"))
        std::printf(" budget %.2f", dbl(cell, "area_budget"));
      std::printf("  power %9.3f uW  improve %6.2f%%  arrival %7.4f ns%s\n",
                  dbl(cell, "power_uw"), dbl(cell, "improve_pct"),
                  dbl(cell, "arrival_ns"),
                  cell.find("pareto")->as_bool() ? "  *pareto" : "");
    }
  } else if (type == "design_closed") {
    const long long refs =
        static_cast<long long>(get(json, "refs")->as_int());
    if (refs == 0)
      std::printf("closed %s\n", get(json, "design")->as_string().c_str());
    else
      std::printf("released %s (%lld refs remain)\n",
                  get(json, "design")->as_string().c_str(), refs);
  } else if (type == "batch_done") {
    std::printf("batch done: %llu circuits, %llu cache hits, "
                "%llu failed, %.1f ms\n",
                static_cast<unsigned long long>(
                    get(json, "count")->as_uint()),
                static_cast<unsigned long long>(
                    get(json, "cache_hits")->as_uint()),
                static_cast<unsigned long long>(
                    get(json, "failed")->as_uint()),
                dbl(json, "wall_ms"));
  } else {
    std::printf("%s\n", line.c_str());
  }
  return true;
}

// ---- scripted ECO sessions (--session FILE) ----

/// Gate operands: an all-digit token is sent as a numeric node id,
/// anything else as a gate name.
dvs::Json gate_json(const std::string& token) {
  bool digits = !token.empty();
  for (char c : token) digits = digits && c >= '0' && c <= '9';
  if (digits)
    return dvs::Json(static_cast<std::int64_t>(
        std::strtoll(token.c_str(), nullptr, 10)));
  return dvs::Json(token);
}

dvs::Json::Array double_list(const std::string& text, const char* what) {
  dvs::Json::Array out;
  std::istringstream list(text);
  std::string item;
  while (std::getline(list, item, ','))
    if (!item.empty()) out.emplace_back(std::atof(item.c_str()));
  if (out.empty())
    throw std::runtime_error(std::string(what) + " wants V1,V2,...");
  return out;
}

dvs::Json::Array algo_list(const std::string& text) {
  dvs::Json::Array out;
  std::istringstream list(text);
  std::string item;
  while (std::getline(list, item, ','))
    if (!item.empty()) out.emplace_back(item);
  return out;
}

/// Translates one script line into the NDJSON request it stands for.
/// `current` is the handle threaded from the last design_opened reply.
std::string session_request(const std::vector<std::string>& words,
                            const std::string& current) {
  const std::string& verb = words[0];
  dvs::Json::Object request;
  auto need_design = [&]() {
    if (current.empty())
      throw std::runtime_error("no open design (use `open` first)");
    request["design"] = dvs::Json(current);
  };
  if (verb == "open") {
    if (words.size() < 2) throw std::runtime_error("open wants a circuit");
    request["type"] = dvs::Json(std::string("open_design"));
    const std::string& what = words[1];
    // A path-looking operand is a netlist file; a bare word is an MCNC
    // circuit name.
    if (what.find('/') != std::string::npos ||
        what.find('.') != std::string::npos) {
      request["netlist"] = dvs::Json(read_file(what));
      if (what.size() > 2 && what.rfind(".v") == what.size() - 2)
        request["format"] = dvs::Json(std::string("verilog"));
    } else {
      request["circuit"] = dvs::Json(what);
    }
    if (words.size() == 4 && words[2] == "as")
      request["name"] = dvs::Json(words[3]);
    else if (words.size() != 2)
      throw std::runtime_error("usage: open CIRCUIT|FILE [as NAME]");
  } else if (verb == "edit") {
    if (words.size() < 3)
      throw std::runtime_error("usage: edit OP GATE [ARG]");
    need_design();
    request["type"] = dvs::Json(std::string("edit"));
    dvs::Json::Object edit;
    const std::string& op = words[1];
    edit["op"] = dvs::Json(op);
    edit["gate"] = gate_json(words[2]);
    if (op == "rung") {
      if (words.size() != 4)
        throw std::runtime_error("usage: edit rung GATE R");
      edit["rung"] = dvs::Json(std::atoi(words[3].c_str()));
    } else if (op == "cell") {
      if (words.size() != 4)
        throw std::runtime_error("usage: edit cell GATE CELL");
      edit["cell"] = dvs::Json(words[3]);
    } else if (words.size() != 3) {
      throw std::runtime_error("usage: edit " + op + " GATE");
    }
    dvs::Json::Array edits;
    edits.emplace_back(std::move(edit));
    request["edits"] = dvs::Json(std::move(edits));
  } else if (verb == "reopt") {
    need_design();
    request["type"] = dvs::Json(std::string("reoptimize"));
    for (std::size_t i = 1; i < words.size(); ++i) {
      const std::string& word = words[i];
      if (word == "auto" || word == "incremental" || word == "full") {
        request["mode"] = dvs::Json(word);
      } else if (word == "algos" && i + 1 < words.size()) {
        request["algos"] = dvs::Json(algo_list(words[++i]));
      } else if (word == "pipeline" && i + 1 < words.size()) {
        // The pipeline spec is the rest of the line, spaces included.
        std::string spec;
        while (++i < words.size()) {
          if (!spec.empty()) spec += ' ';
          spec += words[i];
        }
        request["pipeline"] = dvs::Json(spec);
      } else {
        throw std::runtime_error("unknown reopt argument '" + word + "'");
      }
    }
  } else if (verb == "sweep") {
    need_design();
    request["type"] = dvs::Json(std::string("sweep"));
    for (std::size_t i = 1; i < words.size(); ++i) {
      const std::string& word = words[i];
      if (word == "vlow" && i + 1 < words.size())
        request["vlow"] = dvs::Json(double_list(words[++i], "vlow"));
      else if (word == "budgets" && i + 1 < words.size())
        request["area_budgets"] =
            dvs::Json(double_list(words[++i], "budgets"));
      else if (word == "algos" && i + 1 < words.size())
        request["algos"] = dvs::Json(algo_list(words[++i]));
      else
        throw std::runtime_error("unknown sweep argument '" + word + "'");
    }
  } else if (verb == "close") {
    if (words.size() != 1)
      throw std::runtime_error("close takes no arguments");
    need_design();
    request["type"] = dvs::Json(std::string("close_design"));
  } else {
    throw std::runtime_error("unknown session command '" + verb + "'");
  }
  return dvs::Json(std::move(request)).dump();
}

/// Runs a session script over one connection, fail-fast: the first
/// error response (or unparsable script line) stops the script.
int run_session(const Cli& cli, const std::string& path) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) throw std::runtime_error("cannot open " + path);
    in = &file;
  }
  dvs::Socket socket = connect(cli);
  dvs::LineReader reader(&socket, 64u << 20);
  std::string line;
  std::string current;  // last opened design handle
  int lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::string request;
    if (line[start] == '{') {
      request = line.substr(start);
    } else {
      std::vector<std::string> words;
      std::istringstream stream(line);
      std::string word;
      while (stream >> word) words.push_back(word);
      try {
        request = session_request(words, current);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dvs-client: %s:%d: %s\n", path.c_str(),
                     lineno, e.what());
        return 1;
      }
    }
    socket.send_all(request + "\n");
    std::string reply;
    if (!reader.read_line(&reply)) {
      std::fprintf(stderr, "dvs-client: %s:%d: connection closed\n",
                   path.c_str(), lineno);
      return 2;
    }
    const dvs::Json json = dvs::Json::parse(reply);
    const dvs::Json* type = json.find("type");
    if (type && type->as_string() == "design_opened")
      current = json.find("design")->as_string();
    bool ok;
    if (cli.raw_json) {
      std::printf("%s\n", reply.c_str());
      ok = !type || type->as_string() != "error";
    } else {
      ok = print_response(reply);
    }
    if (!ok) {
      std::fprintf(stderr, "dvs-client: %s:%d: script stopped\n",
                   path.c_str(), lineno);
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  // Connection / output flags may appear anywhere before the command.
  std::size_t at = 0;
  auto value = [&](const char* flag) -> std::string {
    if (at + 1 >= args.size()) {
      std::fprintf(stderr, "dvs-client: %s needs a value\n", flag);
      std::exit(1);
    }
    return args[++at];
  };
  std::string command;
  std::string session_path;
  for (; at < args.size(); ++at) {
    const std::string& arg = args[at];
    if (arg == "--port")
      cli.port = std::atoi(value("--port").c_str());
    else if (arg == "--host")
      cli.host = value("--host");
    else if (arg == "--unix")
      cli.unix_path = value("--unix");
    else if (arg == "--json")
      cli.raw_json = true;
    else if (arg == "--retries")
      cli.retries = std::atoi(value("--retries").c_str());
    else if (arg == "--backoff-ms")
      cli.backoff_ms = std::atoi(value("--backoff-ms").c_str());
    else if (arg == "--session") {
      session_path = value("--session");
      command = "session";
      ++at;
      break;
    } else if (arg == "--stats") {
      // Flag spelling of the stats command, for script ergonomics:
      //   dvs-client --port N --stats
      command = "stats";
      ++at;
      break;
    } else if (arg == "--metrics") {
      command = "metrics";
      ++at;
      break;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      command = arg;
      ++at;
      break;
    } else {
      std::fprintf(stderr, "dvs-client: unknown flag '%s'\n", arg.c_str());
      usage(stderr);
      return 1;
    }
  }
  if (command.empty()) {
    usage(stderr);
    return 1;
  }

  try {
    if (command == "session") {
      if (at != args.size()) {
        std::fprintf(stderr, "dvs-client: --session takes no arguments\n");
        return 1;
      }
      return run_session(cli, session_path);
    }

    dvs::Json::Object request;
    int expected_responses = 1;  // batch reads until batch_done instead

    if (command == "ping" || command == "stats" || command == "metrics" ||
        command == "shutdown") {
      if (at != args.size()) {
        std::fprintf(stderr, "dvs-client: %s takes no arguments\n",
                     command.c_str());
        return 1;
      }
      request["type"] = dvs::Json(command);
    } else if (command == "optimize" || command == "batch") {
      request["type"] = dvs::Json(command);
      dvs::Json::Object options;
      std::string file;
      for (; at < args.size(); ++at) {
        const std::string& arg = args[at];
        if (arg == "--circuit")
          request["circuit"] = dvs::Json(value("--circuit"));
        else if (arg == "--circuits") {
          dvs::Json::Array names;
          std::istringstream list(value("--circuits"));
          std::string name;
          while (std::getline(list, name, ','))
            if (!name.empty()) names.emplace_back(name);
          request["circuits"] = dvs::Json(std::move(names));
        } else if (arg == "--all")
          request["all"] = dvs::Json(true);
        else if (arg == "--max-gates")
          request["max_gates"] =
              dvs::Json(std::atoi(value("--max-gates").c_str()));
        else if (arg == "--format")
          request["format"] = dvs::Json(value("--format"));
        else if (arg == "--algo") {
          dvs::Json::Array algos;
          algos.emplace_back(value("--algo"));
          request["algos"] = dvs::Json(std::move(algos));
        } else if (arg == "--pipeline")
          request["pipeline"] = dvs::Json(value("--pipeline"));
        else if (arg == "--seed")
          options["seed"] = dvs::Json(static_cast<std::uint64_t>(
              std::strtoull(value("--seed").c_str(), nullptr, 0)));
        else if (arg == "--vectors")
          options["vectors"] =
              dvs::Json(std::atoi(value("--vectors").c_str()));
        else if (arg == "--freq-mhz")
          options["freq_mhz"] =
              dvs::Json(std::atof(value("--freq-mhz").c_str()));
        else if (arg == "--tspec-relax")
          options["tspec_relax"] =
              dvs::Json(std::atof(value("--tspec-relax").c_str()));
        else if (arg == "--supplies") {
          // Validate locally with the daemon's own schema so a bad
          // ladder fails fast with the exact protocol error text.
          const std::string ladder = value("--supplies");
          dvs::parse_supply_ladder(ladder);  // throws SupplyError
          options["supplies"] = dvs::Json(ladder);
        }
        else if (arg == "--return-netlist")
          request["return_netlist"] = dvs::Json(true);
        else if (arg == "--no-cache")
          request["use_cache"] = dvs::Json(false);
        else if (arg == "--deadline-ms")
          request["deadline_ms"] = dvs::Json(static_cast<std::uint64_t>(
              std::strtoull(value("--deadline-ms").c_str(), nullptr, 0)));
        else if (arg == "--trace")
          request["trace"] = dvs::Json(true);
        else if (!arg.empty() && arg[0] != '-' && file.empty())
          file = arg;
        else {
          std::fprintf(stderr, "dvs-client: unknown argument '%s'\n",
                       arg.c_str());
          return 1;
        }
      }
      if (!options.empty())
        request["options"] = dvs::Json(std::move(options));
      if (command == "optimize") {
        if (!file.empty())
          request["netlist"] = dvs::Json(read_file(file));
        if (request.count("netlist") == request.count("circuit")) {
          std::fprintf(stderr,
                       "dvs-client: optimize needs a FILE or --circuit\n");
          return 1;
        }
      } else {
        expected_responses = -1;  // stream until batch_done
      }
    } else {
      std::fprintf(stderr, "dvs-client: unknown command '%s'\n",
                   command.c_str());
      usage(stderr);
      return 1;
    }

    const std::string request_line =
        dvs::Json(std::move(request)).dump() + "\n";
    // --retries: a refused/reset connection or a structured 'overloaded'
    // rejection reconnects and resubmits with exponential backoff.
    // Requests are either read-only or idempotent (optimize/batch are
    // cached pure functions), so resubmission is always safe — but once
    // any output has been printed, the retry window is over: replaying a
    // partially-streamed batch would duplicate rows.
    dvs::BackoffPolicy backoff;
    backoff.base_ms = cli.backoff_ms > 0 ? cli.backoff_ms : 1;
    backoff.max_ms = backoff.base_ms * 32.0;
    backoff.seed = static_cast<std::uint64_t>(::getpid());
    for (int attempt = 0;; ++attempt) {
      bool printed = false;
      std::string retry_reason;
      try {
        dvs::Socket socket = connect(cli);
        socket.send_all(request_line);
        dvs::LineReader reader(&socket, 64u << 20);
        std::string line;
        bool ok = true;
        int remaining = expected_responses;
        while ((remaining != 0) && reader.read_line(&line)) {
          if (line.empty()) continue;
          const dvs::Json json = dvs::Json::parse(line);
          const dvs::Json* type = json.find("type");
          const std::string type_name = type ? type->as_string() : "?";
          if (!printed && attempt < cli.retries && type_name == "error") {
            const dvs::Json* code = json.find("code");
            if (code != nullptr && code->as_string() == "overloaded") {
              retry_reason = "daemon overloaded";
              break;
            }
          }
          printed = true;
          if (cli.raw_json) {
            std::printf("%s\n", line.c_str());
            if (type_name == "error" || json.find("error") != nullptr)
              ok = false;
          } else {
            ok = print_response(line) && ok;
          }
          if (remaining > 0) --remaining;
          // Batch stream: stop after batch_done / top-level error.
          if (remaining < 0 &&
              (type_name == "batch_done" || type_name == "error"))
            break;
        }
        if (retry_reason.empty()) return ok ? 0 : 2;
      } catch (const dvs::SocketError& e) {
        if (printed || attempt >= cli.retries) throw;
        retry_reason = e.what();
      }
      const int delay_ms = static_cast<int>(backoff.delay_ms(attempt));
      std::fprintf(stderr, "dvs-client: %s; retry %d/%d in %d ms\n",
                   retry_reason.c_str(), attempt + 1, cli.retries,
                   delay_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs-client: %s\n", e.what());
    return 1;
  }
}
