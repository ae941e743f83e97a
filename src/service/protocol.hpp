// Wire schema of the dvsd optimization service: newline-delimited JSON,
// one request object in, one-or-more response objects out (documented in
// README.md "Optimization as a service").
//
// Request types:
//   {"type":"ping"}                  -> {"type":"pong"}
//   {"type":"stats"}                 -> {"type":"stats", ...}
//   {"type":"metrics"}               -> {"type":"metrics","text":...}
//                                       (Prometheus exposition dump)
//   {"type":"shutdown"}              -> {"type":"bye"} and daemon stop
//   {"type":"optimize", ...}         -> {"type":"result", ...}
//   {"type":"batch", ...}            -> N x {"type":"batch_item", ...}
//                                       + {"type":"batch_done", ...}
//   {"type":"open_design", ...}      -> {"type":"design_opened", ...}
//   {"type":"edit", ...}             -> {"type":"edited", ...}
//   {"type":"reoptimize", ...}       -> {"type":"reoptimized", ...}
//   {"type":"sweep", ...}            -> {"type":"sweep_result", ...}
//   {"type":"close_design", ...}     -> {"type":"design_closed", ...}
//       (ECO sessions: stateful design handles, README.md "ECO
//       sessions"; see the request structs below)
// Anything else (malformed JSON, unknown keys, bad values) produces
// {"type":"error","message":...} and leaves the connection usable.
// Overload-control failures additionally carry a machine-readable
// "code": "overloaded" (admission gate rejected the job),
// "deadline_exceeded" (the request's deadline_ms expired while the job
// was still queued), "line_too_long" (NDJSON frame over the line cap;
// the connection closes after this one, resync being impossible).
//
// Parsing is STRICT — unknown fields are errors, defaults are filled
// explicitly — so a request has exactly one canonical meaning, which is
// what makes hashing the canonicalized options a sound cache key.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "support/json.hpp"

namespace dvs {

class ProtocolError : public std::runtime_error {
 public:
  /// `code` is the machine-readable error class put on the wire next to
  /// the message ("overloaded", "deadline_exceeded", ...); empty for
  /// plain request mistakes.
  explicit ProtocolError(const std::string& message, std::string code = {})
      : std::runtime_error(message), code_(std::move(code)) {}

  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Protocol-level flow knobs (the subset of FlowOptions a client may
/// set; everything else stays at library defaults and is therefore
/// covered by the canonical form implicitly).
struct JobOptions {
  std::uint64_t seed = 0x5eed;  // suite-compatible root seed
  double freq_mhz = 20.0;
  double tspec_relax = 0.0;
  int vectors = 4096;  // activity estimation vectors
  /// Supply-ladder voltages the job runs at ("supplies": "5,4.3,3.6" or
  /// [5, 4.3, 3.6]; validated through SupplyLadder with its schema
  /// texts).  Empty = the daemon library's ladder.  The effective ladder
  /// is part of the cache key: via the canonical job document and via
  /// the ladder-adjusted Library::fingerprint.
  std::vector<double> supplies;

  /// Base FlowOptions (seeds are derived per circuit later).
  FlowOptions to_flow_options() const;
};

enum class RequestType {
  kPing,
  kStats,
  kMetrics,
  kShutdown,
  kOptimize,
  kBatch,
  kRegisterWorker,
  kOpenDesign,
  kEdit,
  kReoptimize,
  kSweep,
  kCloseDesign
};

/// `{"type":"register_worker", ...}` — a worker joining the fleet.  The
/// connection stops being a client connection: after the scheduler
/// acknowledges with {"type":"registered","name":...}, the same socket
/// becomes the worker channel carrying heartbeats, leased jobs, and
/// results (see the fleet_* line builders below).
struct RegisterWorkerRequest {
  std::string name;  // empty = scheduler assigns "worker-<id>"
  int capacity = 1;  // max concurrently leased jobs
};

/// The circuit a job runs on — exactly one of `circuit` (an MCNC name)
/// or `netlist` (BLIF/Verilog text) — and the options it runs with: the
/// block optimize and open_design share, which the service's one resolver
/// turns into a job (service/session.hpp).
struct CircuitSource {
  std::string circuit;
  std::string netlist;
  std::string format = "blif";  // input (and netlist-out) format
  JobOptions options;
};

struct OptimizeRequest : CircuitSource {
  /// The job's cells, one pipeline spec each (string grammar or JSON
  /// array), resolved per circuit by the cell engine (core/job.hpp).
  /// `algos` parses into the paper specs it names, in table order (the
  /// default is all three); `pipeline` into its single spec, kept as the
  /// client sent it — explicit-vs-defaulted options matter for seed
  /// resolution.
  std::vector<Json> specs = paper_specs();
  bool return_netlist = false;  // requires exactly one cell
  bool use_cache = true;
  /// Queue budget in milliseconds (0 = none): if the job has not been
  /// dequeued by a worker within this budget, it fails with a
  /// structured "deadline_exceeded" error instead of running late.
  /// Deliberately NOT part of the cache key — it changes when an answer
  /// is worth computing, never what the answer is.
  std::uint64_t deadline_ms = 0;
  /// Attach a "trace" span array to the result.  Like deadline_ms, NOT
  /// part of the cache key: tracing observes a request, it never changes
  /// the answer (cache hits carry traces without an execute span).
  bool trace = false;
};

struct BatchRequest {
  std::vector<std::string> circuits;  // empty + all=true -> whole suite
  bool all = false;
  int max_gates = 0;  // 0 = no limit (applies to `all`)
  std::vector<Json> specs = paper_specs();  // as in OptimizeRequest
  JobOptions options;
  bool use_cache = true;
  std::uint64_t deadline_ms = 0;  // per-item dequeue budget, as above
  bool trace = false;             // per-item trace arrays, as above
};

// ---- ECO design sessions --------------------------------------------------
//
// Stateful protocol surface (README.md "ECO sessions"): a design is
// loaded once with `open_design`, addressed by its handle, edited with
// streamed deltas, re-evaluated incrementally, swept server-side, and
// released with `close_design`.  Handles are daemon-global and
// refcounted: opening an existing name attaches to it, closing
// decrements, and the design is freed when the last reference closes
// (or the idle GC expires it first).

/// `{"type":"open_design", ...}` — load a circuit into a named handle.
/// `name` is optional: empty lets the daemon assign "d<N>"; a known name
/// attaches to the existing design (its circuit/options are then
/// ignored).
struct OpenDesignRequest : CircuitSource {
  std::string name;
};

/// One streamed structural delta of an `edit` request.
struct DesignEdit {
  enum class Op {
    kRung,      // set the gate's supply rung
    kCell,      // swap to a named drive variant of the same function
    kUpsize,    // one drive step up
    kDownsize,  // one drive step down
    kInsertLc,  // materialize a level converter on the gate's output
    kRemoveLc   // remove a previously inserted level converter
  };
  Op op = Op::kRung;
  /// Gate address: a node id (number) or a node name (string).
  Json gate;
  int rung = 0;       // kRung
  std::string cell;   // kCell
};

struct EditRequest {
  std::string design;
  std::vector<DesignEdit> edits;
};

/// `{"type":"reoptimize", ...}` — re-evaluate (or re-run a pipeline on)
/// the design's current state.  Without `pipeline`/`algos` (no specs)
/// this is the ECO hot path: evaluate power/delay/area of the edited
/// design, via the maintained incremental timer when every edit since
/// the last evaluation was a point edit, falling back to a full
/// recompile after structural edits.  With `pipeline`/`algos` the specs
/// (parsed as in OptimizeRequest) re-run from scratch on the edited
/// netlist (results are cached in the ResultCache under the design's
/// current content fingerprint).
struct ReoptimizeRequest {
  std::string design;
  std::string mode = "auto";  // "auto" | "incremental" | "full"
  std::vector<Json> specs;    // empty = evaluate
  bool use_cache = true;
  bool trace = false;
};

/// `{"type":"sweep", ...}` — the supply-ladder x spec matrix over the
/// design's current network, fanned out on the pool, answered as one
/// reply carrying every cell plus the power/delay Pareto front
/// (core/sweep_matrix.hpp).
struct SweepRequest {
  std::string design;
  /// Explicit ladders, and/or `vlow` sugar: each entry v becomes the
  /// two-rung ladder {design's top voltage, v}.
  std::vector<std::vector<double>> ladders;
  std::vector<double> vlow;
  /// `algos` (as in OptimizeRequest) with each gscale expanded into one
  /// gscale(area_budget=b) spec per entry of `area_budgets`.
  std::vector<Json> specs;
};

struct CloseDesignRequest {
  std::string design;
};

struct Request {
  RequestType type = RequestType::kPing;
  Json id;  // echoed verbatim in every response (null when absent)
  OptimizeRequest optimize;
  BatchRequest batch;
  RegisterWorkerRequest register_worker;
  OpenDesignRequest open_design;
  EditRequest edit;
  ReoptimizeRequest reoptimize;
  SweepRequest sweep;
  CloseDesignRequest close_design;
};

/// Parses one NDJSON line.  Throws ProtocolError / JsonError.
Request parse_request(const std::string& line);

/// Canonical job document for the cache key: the request's cells as
/// resolve_cell builds them for execution (every pass, every option,
/// derived seeds included), the derived circuit seed, and every knob
/// that changes the result body — so a request can never run something
/// its key does not describe.  Because the cells are canonicalized
/// through the OptionSchema, `{"algos":["dscale","cvs"]}`,
/// `{"algos":["cvs","dscale"]}`, and the equivalent pipeline spellings
/// hash identically.  The input format is
/// deliberately excluded unless the response embeds a netlist — a
/// circuit means the same thing as BLIF or as Verilog.
/// `default_supplies` is the daemon library's ladder, substituted when
/// the request does not pin one — so "no supplies", the explicit default
/// ladder, and every spelling of the same ladder produce one canonical
/// document (and therefore one cache entry).
std::string canonical_job_json(const OptimizeRequest& request,
                               std::uint64_t circuit_seed,
                               const SupplyLadder& default_supplies = {});

/// The per-circuit report object (same field names and layout as the
/// BENCH_suite.json circuit rows; disabled algorithms are omitted).
Json report_json(const CircuitRunResult& row, bool with_cvs,
                 bool with_dscale, bool with_gscale);

// ---- response assembly ----------------------------------------------------

/// {"type":..., "id": id} starting point.
Json::Object response_head(const std::string& type, const Json& id);

/// `code` (when non-empty) becomes the response's machine-readable
/// "code" field — see the header comment for the defined codes.
std::string error_response(const Json& id, const std::string& message,
                           const std::string& code = {});

/// Serializes with the trailing newline of the NDJSON framing.
std::string finish_response(Json::Object fields);

/// Splices an already-serialized body object into the response head
/// without re-parsing it — the cache stores serialized bodies, and the
/// hit path must not pay a parse + re-dump of a multi-MB payload.
/// `body` must be a serialized JSON object ("{...}").
std::string finish_response_with_body(Json::Object head,
                                      const std::string& body);

// ---- fleet wire format ----------------------------------------------------
//
// Once a connection registers as a worker it speaks these lines instead
// of the client protocol.  Scheduler -> worker:
//   {"type":"job","lease":L,"request":{...optimize request...}}
// Worker -> scheduler:
//   {"type":"heartbeat","load":n,"capacity":N}
//   {"type":"job_result","lease":L,"checksum":"<fnv1a64 hex>",
//    "body":"<serialized result body, as a JSON string>"}
//   {"type":"job_error","lease":L,"message":"..."}
// The result body travels as an escaped JSON *string*, not a nested
// object, so the exact bytes the worker computed are what the scheduler
// caches and serves — bit-identity survives the hop by construction,
// and the checksum turns any corruption into a retryable failure.

/// Re-serializes an optimize request into a line that parse_request
/// accepts and that resolves to the same job (same canonical document,
/// same cache key): one spec travels as `pipeline`, several (which only
/// `algos` produces) as `algos`.  Transport-only fields (deadline_ms,
/// trace, id) are deliberately dropped: the deadline was already spent
/// at the scheduler's queue, and tracing is observed scheduler-side.
std::string optimize_request_json(const OptimizeRequest& request);

std::string fleet_job_line(std::uint64_t lease,
                           const std::string& request_json);
std::string fleet_heartbeat_line(int load, int capacity);
std::string fleet_result_line(std::uint64_t lease, const std::string& body,
                              std::uint64_t checksum);
std::string fleet_error_line(std::uint64_t lease,
                             const std::string& message);

/// 16-digit lowercase hex spelling used for wire checksums.
std::string checksum_hex(std::uint64_t checksum);

}  // namespace dvs
