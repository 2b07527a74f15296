#pragma once
/// \file server.hpp
/// Planner-as-a-service: the long-running request loop behind
/// `tcemin serve` (docs/SERVING.md).
///
/// A Server turns `tce-serve/1` request documents (problem JSON in)
/// into reply documents (plan JSON + OptimizerStats out), answering
/// repeats from the cross-request PlanCache:
///
///   1. the request program is parsed and canonicalized
///      (tce/serve/canonical.hpp) into a renaming-invariant key over
///      (tree shape, extents, grid, model curves, memory limit,
///      optimizer flags);
///   2. a cache hit returns the stored canonical plan, renamed into
///      the request's vocabulary — byte-identical to what a fresh
///      search would reply, because misses travel the same
///      canonical-solve + rename path before being stored;
///   3. a miss runs optimize() with the request's OptimizerConfig.  Its
///      prover fast path is the admission control: a certified-infeasible
///      request is answered with the rule id and the machine-readable
///      certificate *before* any search is spent (the memory prover
///      runs once per miss).  Otherwise the §3 DP runs (on the shared
///      thread pool, OptimizerConfig::threads) and the result is stored.
///
/// The model comes from characterization_for (tce/costmodel), as in
/// `tcemin plan`: the bundled cluster for the request's grid, or the
/// request's table, which must be for that grid.
///
/// handle() is thread-safe: concurrent requests share the cache and
/// model table behind mutexes while their searches batch onto the
/// process-wide pool.  The request loops (stdio for tests and pipes, a
/// Unix-domain socket for daemons, with an HTTP `GET /metrics`
/// Prometheus scrape escape hatch) live in this header too; framing is
/// length-prefixed JSONL (docs/FORMATS.md, "tce-serve/1").

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "tce/common/annotations.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/serve/cache.hpp"

namespace tce::serve {

/// Daemon knobs (`tcemin serve` flags; docs/SERVING.md).
struct ServeOptions {
  /// Plan-cache capacity in entries (--cache-capacity).
  std::size_t cache_capacity = 256;
  /// Planner threads per search, as OptimizerConfig::threads
  /// (--threads): 0 = all hardware threads, 1 = sequential.
  unsigned threads = 0;
  /// Debug mode (--verify-cache): every cache hit re-runs the full
  /// search and fails the request if the cached bytes differ from the
  /// fresh ones.  Expensive by design — it exists to *prove* hit/fresh
  /// byte-identity under suspicion.
  bool verify_cache = false;
};

/// One serving instance: plan cache + model table + counters.
class Server {
 public:
  explicit Server(ServeOptions options);

  /// Handles one tce-serve/1 request document and returns the reply
  /// document (no trailing newline).  Never throws: every failure
  /// becomes an `"ok":false` reply with a stable error code.
  std::string handle(const std::string& request_json);

  /// True once a "shutdown" request has been accepted.
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  const ServeOptions& options() const noexcept { return options_; }
  PlanCache& cache() noexcept { return cache_; }

 private:
  std::string handle_plan(const struct PlanRequest& req);
  /// The post-canonicalization half of handle_plan: cache lookup,
  /// search, and the admission reply when optimize's prover rejects.
  /// Errors it throws may carry canonical names; handle_plan renames
  /// them back before they escape.
  std::string plan_canonical(const struct PlanRequest& req,
                             const struct CanonicalProblem& canon);
  /// The resident model for \p machine_text (empty = the bundled
  /// cluster) on \p grid, loaded by characterization_for on first use.
  std::shared_ptr<const CharacterizedModel> model_for(
      const std::string& machine_text, const ProcGrid& grid);

  ServeOptions options_;
  PlanCache cache_;
  std::atomic<bool> shutdown_{false};
  Mutex model_mu_;
  /// (grid, table text) → model; characterizing the bundled cluster (or
  /// loading a request-supplied table) happens once per grid and
  /// accepted table.
  std::map<std::string, std::shared_ptr<const CharacterizedModel>>
      models_ TCE_GUARDED_BY(model_mu_);
};

/// Drives \p server over one request stream until EOF, a shutdown
/// request, or a Prometheus scrape (which answers and ends the
/// stream).  Frames: `<decimal length>\n<payload>\n`, or bare JSONL
/// lines starting with `{` — replies mirror the request's framing.
/// Returns the CLI exit code (0 on clean EOF/shutdown).
int serve_loop(Server& server, std::istream& in, std::ostream& out);

/// Binds a Unix-domain stream socket at \p path (replacing any stale
/// socket file) and serves until a shutdown request; each connection
/// runs serve_loop on its own thread while searches share the process
/// pool.  Throws IoError when the socket cannot be created or bound.
/// Returns the CLI exit code.
int serve_unix_socket(Server& server, const std::string& path);

}  // namespace tce::serve
