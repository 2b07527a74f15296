/// \file serve_zipf.cpp
/// Workload serve-zipf: closed-loop clients against a `serve::Server`
/// hosted in this process behind `serve_unix_socket`.  Requests follow
/// Zipf popularity over a few hundred coupled-cluster problems, each sent
/// in one of several alpha-renamed spellings; the plan cache holds fewer
/// entries than there are problems, so misses (search, insert, evict)
/// interleave with hits.  About 5% of requests are certifiably
/// infeasible and must be rejected by admission control.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/serve/canonical.hpp"
#include "tce/serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Fixed load shape (recorded in the fingerprint): client connections,
/// planner threads per search, cache entries, distinct problems.
constexpr unsigned kConnections = 2;
constexpr unsigned kSearchThreads = 1;
constexpr std::size_t kCacheCapacity = 96;
constexpr std::size_t kFeasible = 192;
constexpr std::size_t kInfeasible = 8;
constexpr std::size_t kSpellings = 4;
constexpr double kInfeasibleShare = 0.05;
constexpr double kZipfS = 1.0;

/// One distinct problem with its pre-rendered spellings.
struct ServeProblem {
  bool feasible = true;
  std::string base_text;
  std::uint32_t procs = 16;
  std::uint64_t mem_limit = 0;
  /// Per spelling: program text, request JSON after the id, and the
  /// plan the reply must carry (feasible problems only).
  std::vector<std::string> texts;
  std::vector<std::string> tails;
  std::vector<std::string> expected_plans;
  /// Per spelling: base name → spelled name.
  std::vector<std::map<std::string, std::string>> renames;
};

struct ServeSetup {
  std::vector<ServeProblem> problems;  ///< feasible first, then infeasible
  std::vector<std::size_t> by_rank;    ///< Zipf rank → feasible problem
  double characterize_s = 0;
};

const char kHead[] = R"({"schema":"tce-serve/1","op":"plan","id":")";

std::string request_tail(const std::string& text, std::uint32_t procs,
                         std::uint64_t mem_limit) {
  // ObjectWriter renders {"program":...}; drop its opening brace so the
  // tail continues the head's object after the id.
  tce::json::ObjectWriter w;
  w.field("program", text).field("procs", procs);
  if (mem_limit > 0) w.field("mem_limit_bytes", mem_limit);
  return "\"," + w.str().substr(1);
}

/// The plan bytes inside a successful reply (everything after
/// "plan": up to the envelope's closing brace).
std::string reply_plan(const std::string& reply) {
  const auto at = reply.find("\"plan\":");
  if (at == std::string::npos || reply.empty() || reply.back() != '}') {
    return std::string();
  }
  return reply.substr(at + 7, reply.size() - at - 8);
}

/// The request document for spelling \p v of problem \p p.
std::string request_text(const ServeProblem& p, std::size_t v,
                         const std::string& id) {
  return kHead + id + p.tails[v];
}

/// The distinct problems and their spellings (no searches).
ServeSetup generate(std::uint64_t seed) {
  ServeSetup s;
  tce::Rng rng(seed ^ 0x5e7e5e7eULL);
  // Families the daemon plans without operation minimization.
  static constexpr int kServeFamilies[] = {0, 1, 2, 4};
  for (std::size_t i = 0; i < kFeasible + kInfeasible; ++i) {
    ServeProblem p;
    p.feasible = i < kFeasible;
    const int family = kServeFamilies[i % 4];
    Extents x;
    x.occ = 8 * static_cast<std::uint64_t>(rng.uniform_int(3, 8));
    x.virt = 32 * static_cast<std::uint64_t>(rng.uniform_int(6, 16));
    x.aux = 16 * static_cast<std::uint64_t>(rng.uniform_int(2, 5));
    const Program base = family_program(family, x);
    p.base_text = render(base);
    p.procs = (i / 4) % 2 == 0 ? 16 : 64;
    if (!p.feasible) {
      p.mem_limit = 1000;  // below any input block: certifiably infeasible
    } else if ((i / 8) % 2 == 1) {
      // Twice what the unfused plan needs: feasible without fusion.
      p.mem_limit = 2 * unfused_node_bytes(p.base_text, false, p.procs);
    }
    for (std::size_t v = 0; v < kSpellings; ++v) {
      std::map<std::string, std::string> names;
      const std::string text = render(respell(base, rng, &names));
      p.tails.push_back(request_tail(text, p.procs, p.mem_limit));
      p.texts.push_back(text);
      p.renames.push_back(std::move(names));
    }
    s.problems.push_back(std::move(p));
  }
  s.by_rank.resize(kFeasible);
  for (std::size_t i = 0; i < kFeasible; ++i) s.by_rank[i] = i;
  std::shuffle(s.by_rank.begin(), s.by_rank.end(), rng.engine());
  return s;
}

/// generate() plus each feasible problem's expected plans.
ServeSetup build_setup(std::uint64_t seed) {
  // The daemons characterize their grids internally, out of reach of a
  // timer; characterizing both grids here measures what that costs.
  const double t0 = now_s();
  for (std::uint32_t procs : {16u, 64u}) {
    (void)tce::characterize_itanium(procs);
  }
  const double characterize_s = now_s() - t0;
  ServeSetup s = generate(seed);
  s.characterize_s = characterize_s;

  // Each problem's fresh reply, from a daemon that caches nothing, in
  // the base spelling; the expected plan of every other spelling is that
  // reply with the base names replaced by the spelling's.
  tce::serve::ServeOptions ref_opts;
  ref_opts.cache_capacity = 0;
  ref_opts.threads = kSearchThreads;
  tce::serve::Server reference(ref_opts);
  for (ServeProblem& p : s.problems) {
    if (!p.feasible) continue;
    const std::string reply = reference.handle(
        kHead + std::string("ref") +
        request_tail(p.base_text, p.procs, p.mem_limit));
    const std::string plan = reply_plan(reply);
    if (plan.empty()) throw tce::Error("reference reply failed: " + reply);
    for (const auto& names : p.renames) {
      std::vector<std::pair<std::string, std::string>> table(names.begin(),
                                                             names.end());
      p.expected_plans.push_back(tce::serve::rename_quoted(plan, table));
    }
  }
  return s;
}

/// A blocking client connection speaking length-prefixed tce-serve/1.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon thread may still be binding: retry for up to 10 s.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) break;
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw tce::IoError("cannot connect to '" + path + "'");
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one framed request and returns the framed reply's payload.
  std::string call(const std::string& payload) {
    const std::string frame =
        std::to_string(payload.size()) + "\n" + payload + "\n";
    for (std::size_t sent = 0; sent < frame.size();) {
      const ssize_t n = ::write(fd_, frame.data() + sent, frame.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw tce::IoError("write to the daemon failed");
      sent += static_cast<std::size_t>(n);
    }
    const std::string len_line = read_until_newline();
    std::size_t len = 0;
    for (char c : len_line) {
      if (c < '0' || c > '9' || len > (1u << 30)) {
        throw tce::IoError("bad reply frame length '" + len_line + "'");
      }
      len = len * 10 + static_cast<std::size_t>(c - '0');
    }
    while (buf_.size() < len + 1) fill();
    std::string reply = buf_.substr(0, len);
    buf_.erase(0, len + 1);  // payload plus its newline
    return reply;
  }

 private:
  void fill() {
    char chunk[65536];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) throw tce::IoError("daemon closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string read_until_newline() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) fill();
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

  int fd_ = -1;
  std::string buf_;
};

/// Picks the next request of a client stream: (problem, spelling).
/// Client stream k of a run with seed S draws from Rng(S · 1000003 + k).
std::pair<std::size_t, std::size_t> next_request(const ServeSetup& s,
                                                 const Zipf& zipf,
                                                 tce::Rng& rng) {
  std::size_t problem;
  if (rng.uniform_real(0.0, 1.0) < kInfeasibleShare) {
    problem = kFeasible + static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(kInfeasible) - 1));
  } else {
    problem = s.by_rank[zipf.sample(rng)];
  }
  const auto spelling = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kSpellings) - 1));
  return {problem, spelling};
}

/// One completed op as a client saw it.  Kept compact: a run holds
/// tens of thousands, and their memory shows in peak_rss_mb.
struct OpRecord {
  double end_s = 0;
  double ms = 0;
  std::uint16_t problem = 0;
  std::uint8_t spelling = 0;
  enum Kind : std::uint8_t { kHit, kMiss, kRejected, kFailed } kind = kFailed;
};

}  // namespace

std::vector<std::string> serve_requests(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::size_t count) {
  const ServeSetup s = generate(seed);
  const Zipf zipf(kFeasible, kZipfS);
  tce::Rng rng(seed * 1000003 + stream);
  std::vector<std::string> out;
  for (std::size_t seq = 0; seq < count; ++seq) {
    const auto [pi, v] = next_request(s, zipf, rng);
    out.push_back(request_text(s.problems[pi], v, std::to_string(seq)));
  }
  return out;
}

std::string check_reply(const std::string& reply, const std::string& id,
                        const std::string& expected_kind,
                        const std::string& expected_plan, bool* hit) {
  *hit = false;
  const std::string ok_head =
      R"({"schema":"tce-serve/1","ok":true,"op":"plan","id":")" + id +
      R"(","cache":")";
  const std::string err_head =
      R"({"schema":"tce-serve/1","ok":false,"op":"plan","id":")" + id +
      R"(","error":{"code":"infeasible","rule":"mem.infeasible",)";
  if (expected_kind == "infeasible") {
    return reply.starts_with(err_head)
               ? std::string()
               : "expected an admission rejection, got: " +
                     reply.substr(0, 160);
  }
  if (!reply.starts_with(ok_head)) {
    return "expected a plan reply, got: " + reply.substr(0, 160);
  }
  const std::string kind = reply.substr(ok_head.size(), 4);
  if (kind != "hit\"" && kind != "miss") {
    return "reply names no cache outcome: " + reply.substr(0, 160);
  }
  *hit = kind == "hit\"";
  if (reply_plan(reply) != expected_plan) {
    return std::string(*hit ? "cache hit" : "fresh reply") +
           " differs from the problem's fresh plan in this spelling";
  }
  return std::string();
}

WorkloadResult run_serve_zipf(const RunOptions& opts) {
  WorkloadResult r;
  std::vector<double> setup_times;
  ServeSetup setup;
  for (int i = 0; i < opts.setup_repeats; ++i) {
    const double t0 = now_s();
    setup = build_setup(opts.seed);
    setup_times.push_back(now_s() - t0);
  }
  const Zipf zipf(kFeasible, kZipfS);

  tce::serve::ServeOptions serve_opts;
  serve_opts.cache_capacity = kCacheCapacity;
  serve_opts.threads = kSearchThreads;
  tce::serve::Server server(serve_opts);
  const std::string path = opts.socket_dir + "/perfbench-serve-" +
                           std::to_string(::getpid()) + ".sock";
  std::thread daemon([&] {
    try {
      tce::serve::serve_unix_socket(server, path);
    } catch (const std::exception& e) {
      // Clients then fail to connect, which fails the run.
      std::fprintf(stderr, "daemon: %s\n", e.what());
    }
  });
  // Always stop the daemon, even when a client throws.
  struct Stopper {
    std::thread& daemon;
    const std::string& path;
    ~Stopper() {
      try {
        Client c(path);
        c.call(R"({"schema":"tce-serve/1","op":"shutdown"})");
      } catch (const std::exception&) {
      }
      daemon.join();
    }
  } stopper{daemon, path};

  // Warm-up: one client runs its own stream until the cache is full
  // (every grid is characterized long before that).
  const double warm0 = now_s();
  {
    Client c(path);
    tce::Rng rng(opts.seed);
    for (std::uint64_t seq = 0; server.cache().size() < kCacheCapacity;
         ++seq) {
      if (seq == 100000) throw tce::Error("warm-up never filled the cache");
      const auto [pi, v] = next_request(setup, zipf, rng);
      c.call(request_text(setup.problems[pi], v, "w" + std::to_string(seq)));
    }
  }
  const double warmup_s = now_s() - warm0;

  std::uint64_t stream = 0;  // distinct client streams across windows
  std::mutex mu;
  // Runs kConnections closed-loop clients for \p seconds; returns every
  // op and the window's start time.
  const auto run_window = [&](double seconds) {
    std::vector<OpRecord> ops;
    const double start = now_s();
    std::vector<std::thread> clients;
    for (unsigned k = 0; k < kConnections; ++k) {
      const std::uint64_t stream_id = ++stream;
      clients.emplace_back([&, stream_id] {
        std::vector<OpRecord> mine;
        std::uint64_t failed = 0;
        bool threw = false;
        std::vector<std::string> why;
        try {
          Client c(path);
          tce::Rng rng(opts.seed * 1000003 + stream_id);
          for (std::uint64_t seq = 0; now_s() - start < seconds; ++seq) {
            const auto [pi, v] = next_request(setup, zipf, rng);
            const ServeProblem& p = setup.problems[pi];
            const std::string id =
                "c" + std::to_string(stream_id) + "-" + std::to_string(seq);
            const std::string request = request_text(p, v, id);
            const double t0 = now_s();
            const std::string reply = c.call(request);
            const double t1 = now_s();
            OpRecord op{t1, (t1 - t0) * 1e3, static_cast<std::uint16_t>(pi),
                        static_cast<std::uint8_t>(v), OpRecord::kFailed};
            bool hit = false;
            const std::string err = check_reply(
                reply, id, p.feasible ? "plan" : "infeasible",
                p.feasible ? p.expected_plans[v] : std::string(), &hit);
            if (!err.empty()) {
              ++failed;
              if (why.size() < 4) why.push_back(err);
            } else {
              op.kind = !p.feasible ? OpRecord::kRejected
                        : hit       ? OpRecord::kHit
                                    : OpRecord::kMiss;
            }
            mine.push_back(op);
          }
        } catch (const std::exception& e) {
          ++failed;
          threw = true;
          why.push_back(e.what());
        }
        const std::lock_guard<std::mutex> lock(mu);
        ops.insert(ops.end(), mine.begin(), mine.end());
        r.attempted += mine.size() + (threw ? 1 : 0);
        for (std::uint64_t i = 0; i < failed; ++i) {
          r.fail(i < why.size() ? why[i] : "serve op failed");
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return std::make_pair(ops, start);
  };
  // The ops of one kind (all when \p kind < 0) as latency samples.
  const auto samples = [](const std::vector<OpRecord>& ops, int kind) {
    std::vector<OpSample> out;
    for (const OpRecord& op : ops) {
      if (kind < 0 || op.kind == kind) {
        out.push_back({op.end_s, op.ms, static_cast<int>(op.kind)});
      }
    }
    return out;
  };

  r.settings["connections"] = std::to_string(kConnections);
  r.settings["search_threads"] = std::to_string(kSearchThreads);
  r.settings["daemon_connection_threads"] = std::to_string(kConnections);
  r.settings["cache_capacity"] = std::to_string(kCacheCapacity);
  r.settings["distinct_feasible"] = std::to_string(kFeasible);
  r.settings["distinct_infeasible"] = std::to_string(kInfeasible);
  r.settings["spellings"] = std::to_string(kSpellings);
  r.settings["zipf_s"] = tce::json::number(kZipfS);
  r.settings["warmup_s"] = tce::json::number(warmup_s);
  const double setup_s = median(setup_times) + warmup_s;

  if (!opts.trace) {
    const auto [ops, start] = run_window(opts.seconds);
    set_end_to_end(r, samples(ops, -1), start, now_s() - start, setup_s);
    return r;
  }

  const std::vector<OpRecord> plain = run_window(opts.seconds / 2).first;
  tce::obs::metrics_reset();
  tce::obs::metrics_enable(true);
  const double cpu0 = cpu_seconds();
  const auto [ops, start] = run_window(opts.seconds / 2);
  const double window = now_s() - start;
  const double cpu_s = cpu_seconds() - cpu0;
  tce::obs::metrics_enable(false);

  const auto snap = tce::obs::metrics_snapshot();
  const auto hist_sum = [&](const char* name) {
    const auto it = snap.find(name);
    return it == snap.end() ? 0.0 : it->second.sum;
  };
  const double handle_s = hist_sum("serve.request_s");
  const double hit_post_s = hist_sum("serve.request.hit_s");
  const double miss_post_s = hist_sum("serve.request.miss_s");
  const double search_s = hist_sum("opt.search_wall_s");
  double client_s = 0;
  double hits = 0, misses = 0;
  for (const OpRecord& op : ops) {
    client_s += op.ms / 1e3;
    hits += op.kind == OpRecord::kHit ? 1 : 0;
    misses += op.kind == OpRecord::kMiss ? 1 : 0;
  }
  const double requests = static_cast<double>(ops.size());
  set_registry_metrics(r, requests);

  // Replay (untimed by the window): the layer functions the daemon runs
  // on every request, timed on a sample of this window's requests.
  double parse_s = 0, canon_s = 0, rename_s = 0;
  std::size_t replayed = 0, renamed = 0;
  const std::size_t stride = std::max<std::size_t>(1, ops.size() / 2000);
  for (std::size_t i = 0; i < ops.size(); i += stride, ++replayed) {
    const ServeProblem& p = setup.problems[ops[i].problem];
    const std::string& text = p.texts[ops[i].spelling];
    const double t0 = now_s();
    const tce::ParsedProgram parsed = tce::parse_program(text);
    const double t1 = now_s();
    const tce::serve::CanonicalProblem canon =
        tce::serve::canonicalize_program(parsed);
    const double t2 = now_s();
    parse_s += t1 - t0;
    canon_s += t2 - t1;
    if (p.feasible) {
      // The cached plan is canonical; renaming it back is the hit path.
      std::vector<std::pair<std::string, std::string>> to_canon;
      for (const auto& [c, req] : canon.renames) to_canon.emplace_back(req, c);
      const std::string canonical_plan = tce::serve::rename_quoted(
          p.expected_plans[ops[i].spelling], to_canon);
      const double t3 = now_s();
      const std::string plan =
          tce::serve::rename_quoted(canonical_plan, canon.renames);
      rename_s += now_s() - t3;
      ++renamed;
      if (plan != p.expected_plans[ops[i].spelling]) {
        r.fail("replayed rename does not reproduce the served plan");
      }
    }
  }
  const double per = replayed > 0 ? 1.0 / static_cast<double>(replayed) : 0;
  const double parse_each = parse_s * per, canon_each = canon_s * per;
  const double rename_each =
      renamed > 0 ? rename_s / static_cast<double>(renamed) : 0;

  StageTable stages;
  stages.add("serve.frame_s", client_s - handle_s);
  stages.add("expr.parse_s", parse_each * requests);
  stages.add("serve.canonicalize_s", canon_each * requests);
  stages.add("serve.lookup_s", hit_post_s - rename_each * hits);
  stages.add("serve.rename_s", rename_each * (hits + misses));
  stages.add("core.search_wall_s", search_s);
  stages.add("serve.miss_other_s",
             miss_post_s - search_s - rename_each * misses);
  stages.add("serve.handle_other_s",
             handle_s - hit_post_s - miss_post_s -
                 (parse_each + canon_each) * requests);
  r.set("serve.handle_s", handle_s, "s");
  r.set("expr.parse_calls", requests, "count");
  const std::vector<double> hit_ms = sorted_ms(samples(ops, OpRecord::kHit));
  const std::vector<double> miss_ms =
      sorted_ms(samples(ops, OpRecord::kMiss));
  r.set("serve.hit_s.p50", quantile(hit_ms, 0.5) / 1e3, "s");
  r.set("serve.hit_s.p99", quantile(hit_ms, 0.99) / 1e3, "s");
  r.set("serve.miss_s.p50", quantile(miss_ms, 0.5) / 1e3, "s");
  r.set("serve.miss_s.p99", quantile(miss_ms, 0.99) / 1e3, "s");
  r.set("costmodel.characterize_s", setup.characterize_s, "s");

  // A warm hit, per request, as the client saw it.
  double hit_client = 0;
  for (double ms : hit_ms) hit_client += ms / 1e3;
  if (hits > 0) {
    const double mean_hit = hit_client / hits;
    const double lookup = hit_post_s / hits - rename_each;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "warm hit breakdown (mean of %.0f hits, microseconds):\n"
        "  client-observed %9.2f\n  parse           %9.2f\n"
        "  canonicalize    %9.2f\n  cache lookup    %9.2f\n"
        "  rename          %9.2f\n  framing + rest  %9.2f\n",
        hits, mean_hit * 1e6, parse_each * 1e6, canon_each * 1e6,
        lookup * 1e6, rename_each * 1e6,
        (mean_hit - parse_each - canon_each - lookup - rename_each) * 1e6);
    r.text += buf;
  }
  finish_traced(r, stages,
                "serve-zipf stage table (traced half, client-thread seconds "
                "= connections x wall)",
                kConnections * window, cpu_s / window, samples(plain, -1),
                samples(ops, -1));
  return r;
}

}  // namespace perfbench
