#include "tce/serve/server.hpp"

#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/parse.hpp"
#include "tce/common/timer.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/lint/lint.hpp"
#include "tce/obs/exporters.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/serve/canonical.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace tce::serve {

/// One decoded "plan" request (docs/FORMATS.md, tce-serve/1).
struct PlanRequest {
  std::string id;
  std::string program;
  std::uint32_t procs = 16;
  std::uint32_t per_node = 2;
  std::uint64_t mem_limit_bytes = 0;
  bool fusion = true;
  bool redistribution = true;
  bool replication = false;
  bool liveness = false;
  /// Characterization-file text; empty = measure the bundled simulated
  /// itanium-2003 cluster for the requested grid.
  std::string machine;
};

namespace {

constexpr const char* kSchema = "tce-serve/1";
/// Largest accepted length-prefixed frame.
constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;
/// Resident model table cap (each entry owns seven cost curves; the
/// table is cleared wholesale when a request-supplied machine churn
/// would otherwise grow it without bound).
constexpr std::size_t kMaxResidentModels = 64;

/// Malformed request *documents* (bad JSON, wrong types, unknown op) —
/// reply code "usage", as distinct from problems with the contraction
/// program itself (tce::Error → "input").
class RequestError : public Error {
 public:
  using Error::Error;
};

/// TCE_SERVE_VERIFY_CACHE found a cached plan whose bytes differ from a
/// fresh search — a serving bug by definition, reply code "internal".
class VerifyCacheError : public Error {
 public:
  using Error::Error;
};

std::string get_string(const json::Value& doc, const char* key,
                       const std::string& fallback) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind == json::Value::Kind::kString) return v->string;
  if (v->kind == json::Value::Kind::kNumber && v->is_integer) {
    return std::to_string(v->integer);  // numeric request ids are fine
  }
  throw RequestError(std::string("request field '") + key +
                     "' must be a string");
}

std::uint64_t get_u64(const json::Value& doc, const char* key,
                      std::uint64_t fallback) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != json::Value::Kind::kNumber || !v->is_integer) {
    throw RequestError(std::string("request field '") + key +
                       "' must be a non-negative integer");
  }
  return v->integer;
}

std::uint32_t get_u32(const json::Value& doc, const char* key,
                      std::uint32_t fallback) {
  const std::uint64_t v = get_u64(doc, key, fallback);
  if (v > UINT32_MAX) {
    throw RequestError(std::string("request field '") + key +
                       "' is out of range");
  }
  return static_cast<std::uint32_t>(v);
}

bool get_bool(const json::Value& doc, const char* key, bool fallback) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != json::Value::Kind::kBool) {
    throw RequestError(std::string("request field '") + key +
                       "' must be a boolean");
  }
  return v->boolean;
}

/// The shared reply envelope prefix: schema, ok, op, and the echoed id.
json::ObjectWriter reply_base(bool ok, const std::string& op,
                              const std::string& id) {
  json::ObjectWriter out;
  out.field("schema", kSchema).field("ok", ok).field("op", op);
  if (!id.empty()) out.field("id", id);
  return out;
}

std::string error_reply(const std::string& op, const std::string& id,
                        const char* code, const std::string& message,
                        const std::string& rule = std::string(),
                        const std::string& certificate_raw = std::string()) {
  json::ObjectWriter err;
  err.field("code", code);
  if (!rule.empty()) err.field("rule", rule);
  err.field("message", message);
  if (!certificate_raw.empty()) err.raw("certificate", certificate_raw);
  json::ObjectWriter out = reply_base(false, op, id);
  out.raw("error", err.str());
  return out.str();
}

/// Canonical name → request name (identity for names outside the
/// table, e.g. when the prover blames a node the request also calls t0).
const std::string& rename_back(
    const std::string& canonical,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  for (const auto& [canon, request] : renames) {
    if (canon == canonical) return request;
  }
  return canonical;
}

ContractionTree build_canonical_tree(const std::string& canonical_text) {
  const ParsedProgram program = parse_program(canonical_text);
  // Single-output programs only: a forest has no single plan document
  // to cache (to_formula_sequence without allow_forest rejects it with
  // an explanatory Error → reply code "input").
  return ContractionTree::from_sequence(to_formula_sequence(program));
}

OptimizerConfig optimizer_config(const PlanRequest& req, unsigned threads) {
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = req.mem_limit_bytes;
  cfg.enable_fusion = req.fusion;
  cfg.enable_redistribution = req.redistribution;
  cfg.enable_replication_template = req.replication;
  cfg.liveness_aware = req.liveness;
  cfg.threads = threads;
  return cfg;
}

/// Runs the search on the canonical tree and renders the canonical plan
/// JSON.  Wall-clock stats (search_wall_s, per-node wall_s) are zeroed
/// first: they are the only nondeterministic bytes in the plan document,
/// and the serve contract is that a cache hit is byte-identical to a
/// fresh search — timing lives in the serve.request_s histograms
/// instead (docs/SERVING.md).
std::string solve_canonical(const ContractionTree& tree,
                            const CharacterizedModel& model,
                            const PlanRequest& req, unsigned threads) {
  OptimizedPlan plan = optimize(tree, model, optimizer_config(req, threads));
  plan.stats.search_wall_s = 0;
  for (NodeSearchStats& n : plan.stats.nodes) n.wall_s = 0;
  return plan_to_json(plan, tree.space());
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(options), cache_(options.cache_capacity) {}

std::shared_ptr<const CharacterizedModel> Server::model_for(
    const std::string& machine_text, std::uint32_t procs,
    std::uint32_t per_node, std::string* fingerprint) {
  // The fingerprint is part of the cache key: it must pin the *curves*,
  // so request-supplied tables carry their full text verbatim (FNV-1a
  // is not collision-resistant, and two colliding tables must never
  // share a resident model or a plan-cache fingerprint — this mirrors
  // how the canonical program text is used verbatim as the cache key)
  // while the bundled cluster, a pure function of the grid, is named by
  // the grid alone.  The compact hex digest echoed in replies is
  // derived from the whole cache key afterwards.
  std::string key;
  if (machine_text.empty()) {
    key = "itanium2003/" + std::to_string(procs) + "/" +
          std::to_string(per_node);
  } else {
    key = "table/";
    key += machine_text;
  }
  *fingerprint = key;

  MutexLock lock(model_mu_);
  const auto it = models_.find(key);
  if (it != models_.end()) return it->second;
  std::shared_ptr<const CharacterizedModel> model;
  if (machine_text.empty()) {
    const ProcGrid grid = ProcGrid::make(procs, per_node);
    ClusterSpec spec = ClusterSpec::itanium2003(grid.nodes());
    spec.procs_per_node = per_node;
    Network net(spec);
    model = std::make_shared<const CharacterizedModel>(
        characterize(net, grid));
  } else {
    CharacterizationTable table =
        CharacterizationTable::load_string(machine_text);
    if (table.grid.procs != procs) {
      throw Error("machine table is for " +
                  std::to_string(table.grid.procs) +
                  " processors, but the request asks for " +
                  std::to_string(procs));
    }
    model = std::make_shared<const CharacterizedModel>(std::move(table));
  }
  if (models_.size() >= kMaxResidentModels) models_.clear();
  models_.emplace(key, model);
  return model;
}

std::string Server::handle_plan(const PlanRequest& req) {
  const ParsedProgram program = parse_program(req.program);
  const CanonicalProblem canon = canonicalize_program(program);
  // Errors raised past this point — InfeasibleError from the DP search,
  // parse/validation errors from the canonical tree — may be phrased in
  // canonical names (t0, i0) the client never wrote: translate them
  // back into the request's vocabulary before they escape.  (The
  // admission-control path renames its certificate via rename_back.)
  try {
    return plan_canonical(req, canon);
  } catch (const VerifyCacheError&) {
    throw;  // names only the key digest — nothing to rename
  } catch (const InfeasibleError& e) {
    throw InfeasibleError(rename_text(e.what(), canon.renames));
  } catch (const Error& e) {
    // Collapses Error subtypes, which is fine: handle() maps every
    // subtype that can reach here to the same "input" reply code.
    throw Error(rename_text(e.what(), canon.renames));
  }
}

std::string Server::plan_canonical(const PlanRequest& req,
                                   const CanonicalProblem& canon) {
  std::string fingerprint;
  const std::shared_ptr<const CharacterizedModel> model =
      model_for(req.machine, req.procs, req.per_node, &fingerprint);

  // The full key: canonical program text plus everything else the
  // search depends on.  OptimizerConfig::threads is deliberately
  // absent — plans are identical at every thread count (see
  // optimizer.hpp), so a daemon restarted with different parallelism
  // still hits.  The cache map keys on the whole string; the 64-bit
  // digest is only the compact name echoed in replies and logs.
  std::string key = canon.text;
  key += "procs=" + std::to_string(req.procs);
  key += " ppn=" + std::to_string(req.per_node);
  key += " mem=" + std::to_string(req.mem_limit_bytes);
  key += " fusion=" + std::to_string(req.fusion ? 1 : 0);
  key += " redist=" + std::to_string(req.redistribution ? 1 : 0);
  key += " repl=" + std::to_string(req.replication ? 1 : 0);
  key += " live=" + std::to_string(req.liveness ? 1 : 0);
  key += " model=" + fingerprint;
  const std::string digest = hex64(fnv1a64(key));

  const Stopwatch sw;
  const std::optional<std::string> cached = cache_.get(key);
  if (cached.has_value()) {
    if (options_.verify_cache) {
      const ContractionTree tree = build_canonical_tree(canon.text);
      const std::string fresh =
          solve_canonical(tree, *model, req, options_.threads);
      if (fresh != *cached) {
        obs::count("serve.verify.mismatch");
        obs::log_event(obs::LogLevel::kError, "serve",
                       "verify_cache.mismatch",
                       json::ObjectWriter().field("key", digest).str());
        throw VerifyCacheError(
            "cached plan differs from a fresh search for key " + digest +
            " (cached " + std::to_string(cached->size()) + " bytes, fresh " +
            std::to_string(fresh.size()) + " bytes)");
      }
      obs::count("serve.verify.ok");
    }
    const std::string plan = rename_quoted(*cached, canon.renames);
    obs::observe("serve.request.hit_s", sw.elapsed_s());
    json::ObjectWriter out = reply_base(true, "plan", req.id);
    out.field("cache", "hit").field("key", digest).raw("plan", plan);
    return out.str();
  }

  const ContractionTree tree = build_canonical_tree(canon.text);

  // Admission control: before spending a search, ask the lint prover
  // whether the memory limit is *certifiably* unsatisfiable.  A
  // certificate short-circuits the request with the rule id and the
  // binding node (translated back into the request's vocabulary).
  if (req.mem_limit_bytes > 0) {
    const std::optional<lint::InfeasibilityCertificate> cert =
        lint::prove_infeasible(
            tree, model->grid(),
            lint_config_of(optimizer_config(req, options_.threads)));
    if (cert.has_value()) {
      obs::count("serve.rejected");
      const std::string node = rename_back(cert->node, canon.renames);
      obs::log_event(obs::LogLevel::kWarn, "serve", "admission.reject",
                     json::ObjectWriter()
                         .field("key", digest)
                         .field("node", node)
                         .field("lower_bound_node_bytes",
                                cert->lower_bound_node_bytes)
                         .str());
      return error_reply(
          "plan", req.id, "infeasible",
          "rejected before search: no plan can satisfy the per-node "
          "memory limit (binding node " +
              node + ", certified lower bound " +
              std::to_string(cert->lower_bound_node_bytes) + " > limit " +
              std::to_string(cert->mem_limit_node_bytes) + " bytes)",
          "mem.infeasible",
          json::ObjectWriter()
              .field("node", node)
              .field("lower_bound_node_bytes", cert->lower_bound_node_bytes)
              .field("mem_limit_node_bytes", cert->mem_limit_node_bytes)
              .str());
    }
  }

  const std::string canonical_plan =
      solve_canonical(tree, *model, req, options_.threads);
  cache_.put(key, canonical_plan);
  obs::gauge("serve.cache.size", static_cast<double>(cache_.size()));
  const std::string plan = rename_quoted(canonical_plan, canon.renames);
  obs::observe("serve.request.miss_s", sw.elapsed_s());
  json::ObjectWriter out = reply_base(true, "plan", req.id);
  out.field("cache", "miss").field("key", digest).raw("plan", plan);
  return out.str();
}

std::string Server::handle(const std::string& request_json) {
  const Stopwatch sw;
  obs::count("serve.requests");
  std::string op = "plan";
  std::string id;
  std::string reply;
  try {
    json::Value doc;
    try {
      doc = json::parse(request_json);
    } catch (const Error& e) {
      throw RequestError(std::string("malformed request JSON: ") + e.what());
    }
    if (doc.kind != json::Value::Kind::kObject) {
      throw RequestError("request must be a JSON object");
    }
    if (const json::Value* s = doc.find("schema")) {
      if (s->kind != json::Value::Kind::kString || s->string != kSchema) {
        throw RequestError(std::string("unsupported schema; expected \"") +
                           kSchema + "\"");
      }
    }
    id = get_string(doc, "id", "");
    op = get_string(doc, "op", "plan");
    if (op == "plan") {
      PlanRequest req;
      req.id = id;
      const json::Value* prog = doc.find("program");
      if (prog == nullptr || prog->kind != json::Value::Kind::kString ||
          prog->string.empty()) {
        throw RequestError(
            "request field 'program' (the contraction program text) is "
            "required");
      }
      req.program = prog->string;
      req.procs = get_u32(doc, "procs", req.procs);
      req.per_node = get_u32(doc, "procs_per_node", req.per_node);
      req.mem_limit_bytes =
          get_u64(doc, "mem_limit_bytes", req.mem_limit_bytes);
      req.fusion = get_bool(doc, "fusion", req.fusion);
      req.redistribution = get_bool(doc, "redistribution",
                                    req.redistribution);
      req.replication = get_bool(doc, "replication", req.replication);
      req.liveness = get_bool(doc, "liveness", req.liveness);
      req.machine = get_string(doc, "machine", "");
      reply = handle_plan(req);
    } else if (op == "ping") {
      json::ObjectWriter out = reply_base(true, op, id);
      out.raw("cache", json::ObjectWriter()
                           .field("size", cache_.size())
                           .field("capacity", cache_.capacity())
                           .field("hits", cache_.hits())
                           .field("misses", cache_.misses())
                           .field("evictions", cache_.evictions())
                           .str());
      reply = out.str();
    } else if (op == "metrics") {
      json::ObjectWriter out = reply_base(true, op, id);
      out.raw("metrics", obs::metrics_json());
      reply = out.str();
    } else if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      obs::log_event(obs::LogLevel::kInfo, "serve", "shutdown", "");
      reply = reply_base(true, op, id).str();
    } else {
      throw RequestError("unknown op '" + op +
                         "'; expected plan, ping, metrics or shutdown");
    }
  } catch (const RequestError& e) {
    obs::count("serve.errors");
    reply = error_reply(op, id, "usage", e.what());
  } catch (const VerifyCacheError& e) {
    obs::count("serve.errors");
    reply = error_reply(op, id, "internal", e.what(), "serve.verify-cache");
  } catch (const InfeasibleError& e) {
    // The DP exhausted the search under the limit without the prover
    // having certified it upfront — infeasible, but with no certificate.
    obs::count("serve.infeasible");
    reply = error_reply(op, id, "infeasible", e.what());
  } catch (const Error& e) {
    obs::count("serve.errors");
    reply = error_reply(op, id, "input", e.what());
  } catch (const std::exception& e) {
    obs::count("serve.errors");
    reply = error_reply(op, id, "internal", e.what());
  }
  obs::observe("serve.request_s", sw.elapsed_s());
  return reply;
}

int serve_loop(Server& server, std::istream& in, std::ostream& out) {
  std::string line;
  while (!server.shutdown_requested() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.starts_with("GET ")) {
      // A Prometheus scrape (or curl --unix-socket).  Drain the request
      // headers, answer with plain HTTP, and end the stream — scrape
      // connections are one-shot.
      std::string header;
      while (std::getline(in, header) && !header.empty() &&
             header != "\r") {
      }
      const bool metrics = line.starts_with("GET /metrics");
      const std::string body =
          metrics ? obs::metrics_prometheus() : std::string("not found\n");
      out << "HTTP/1.0 " << (metrics ? "200 OK" : "404 Not Found")
          << "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
          << "\r\nContent-Length: " << body.size()
          << "\r\nConnection: close\r\n\r\n"
          << body;
      out.flush();
      return 0;
    }
    std::string payload;
    bool framed = false;
    if (line[0] == '{') {
      payload = line;  // bare JSONL
    } else {
      // Length-prefixed frame: this line is the decimal payload size.
      const std::optional<std::uint64_t> len =
          parse_u64_in(line, 1, kMaxFrameBytes);
      if (!len.has_value()) {
        out << error_reply("", "", "usage",
                           "bad frame: expected a decimal payload length "
                           "or a JSON object line, got '" +
                               line + "'")
            << "\n";
        out.flush();
        return 0;  // framing is desynchronized; close the stream
      }
      framed = true;
      payload.resize(static_cast<std::size_t>(*len));
      in.read(payload.data(), static_cast<std::streamsize>(*len));
      if (static_cast<std::uint64_t>(in.gcount()) != *len) {
        out << error_reply("", "", "usage",
                           "bad frame: stream ended inside a payload of " +
                               std::to_string(*len) + " bytes")
            << "\n";
        out.flush();
        return 0;
      }
      // Consume the payload's trailing newline (tolerating \r\n).
      int c = in.get();
      if (c == '\r') c = in.get();
      if (c != '\n' && c != std::char_traits<char>::eof()) in.unget();
    }
    const std::string reply = server.handle(payload);
    if (framed) {
      out << reply.size() << "\n" << reply << "\n";
    } else {
      out << reply << "\n";
    }
    out.flush();
  }
  return 0;
}

#ifndef _WIN32

namespace {

/// Minimal read/write streambuf over a connected socket fd, so the
/// socket path reuses serve_loop verbatim.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (flush_put() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_put(); }

 private:
  int flush_put() {
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

int serve_unix_socket(Server& server, const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path '" + path + "' is empty or too long (max " +
                  std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw IoError(std::string("cannot create unix socket: ") +
                  std::strerror(errno));
  }
  ::unlink(path.c_str());  // replace a stale socket file from a dead daemon
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw IoError("cannot listen on '" + path + "': " + why);
  }
  obs::log_event(obs::LogLevel::kInfo, "serve", "listening",
                 json::ObjectWriter().field("socket", path).str());

  struct Conn {
    std::thread thread;
    int fd;
    /// Set by the handler thread as its last action, so the accept loop
    /// can join-and-close without blocking on a live connection.
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::list<Conn> conns;
  // Join the threads of connections whose serve_loop has returned and
  // close their fds.  Called on every accept-loop wakeup (the 200 ms
  // poll timeout bounds staleness): scrape connections are one-shot by
  // design, so without reaping a long-lived daemon would leak one fd
  // plus one thread stack per scrape until accept() dies with EMFILE.
  const auto reap = [&conns] {
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        ::close(it->fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!server.shutdown_requested()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    // The poll timeout bounds how stale a shutdown can go unnoticed
    // when no new connection arrives to deliver it.
    const int r = ::poll(&pfd, 1, 200);
    if (r < 0 && errno != EINTR) break;
    reap();
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    obs::count("serve.connections");
    auto done = std::make_shared<std::atomic<bool>>(false);
    conns.push_back(Conn{std::thread([&server, fd, done] {
                           FdStreamBuf buf(fd);
                           std::istream in(&buf);
                           std::ostream out(&buf);
                           serve_loop(server, in, out);
                           ::shutdown(fd, SHUT_RDWR);
                           done->store(true, std::memory_order_release);
                         }),
                         fd, done});
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  for (Conn& c : conns) {
    // Unblock any connection still parked in read(); the fd itself is
    // closed only after the join, so the descriptor cannot be reused
    // under a live thread.
    ::shutdown(c.fd, SHUT_RDWR);
    c.thread.join();
    ::close(c.fd);
  }
  obs::log_event(obs::LogLevel::kInfo, "serve", "stopped", "");
  return 0;
}

#else  // _WIN32

int serve_unix_socket(Server&, const std::string&) {
  throw IoError(
      "unix-domain sockets are unavailable on this platform; use --stdio");
}

#endif

}  // namespace tce::serve
