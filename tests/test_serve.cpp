// Tests for tce/serve: renaming-invariant canonicalization, the LRU
// plan cache, the tce-serve/1 request handler (admission control,
// hit/fresh byte-identity, the verify-cache debug mode) and the
// stdio/framed request loop.  The concurrent storm tests run under
// TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "tce/common/json.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/serve/cache.hpp"
#include "tce/serve/canonical.hpp"
#include "tce/serve/server.hpp"

namespace tce::serve {
namespace {

// ------------------------------------------------------ canonicalization

constexpr const char* kChain =
    "index a, b = 480\n"
    "index a2 = 480\n"
    "index i = 32\n"
    "T[a,b] = sum[i] X[a,i] * Y[i,b]\n"
    "S[a,a2] = sum[b] T[a,b] * Z[b,a2]\n";

std::string canonical_text(const char* program) {
  return canonicalize_program(parse_program(program)).text;
}

TEST(ServeCanonical, AlphaRenamedProgramsCanonicalizeIdentically) {
  // Same problem: every index and tensor renamed, declarations
  // regrouped and reordered, plus an extra unused index.
  const char* renamed =
      "index unused = 7\n"
      "index k = 32\n"
      "index p = 480\n"
      "index q, r = 480\n"
      "Mid[p,q] = sum[k] Left[p,k] * Right[k,q]\n"
      "Out[p,r] = sum[q] Mid[p,q] * Other[q,r]\n";
  EXPECT_EQ(canonical_text(kChain), canonical_text(renamed));
}

TEST(ServeCanonical, ExtentChangesTheCanonicalText) {
  const char* bigger =
      "index a, b = 480\n"
      "index a2 = 480\n"
      "index i = 64\n"  // 32 -> 64
      "T[a,b] = sum[i] X[a,i] * Y[i,b]\n"
      "S[a,a2] = sum[b] T[a,b] * Z[b,a2]\n";
  EXPECT_NE(canonical_text(kChain), canonical_text(bigger));
}

TEST(ServeCanonical, TreeShapeChangesTheCanonicalText) {
  const char* single =
      "index a, b = 480\n"
      "index i = 32\n"
      "T[a,b] = sum[i] X[a,i] * Y[i,b]\n";
  EXPECT_NE(canonical_text(kChain), canonical_text(single));
}

TEST(ServeCanonical, CanonicalTextIsAFixpoint) {
  const std::string once = canonical_text(kChain);
  EXPECT_EQ(once, canonicalize_program(parse_program(once)).text);
}

TEST(ServeCanonical, SumOrderDoesNotLeakIntoCanonicalText) {
  // sum[e,l] vs sum[l,e] is the same IndexSet; spelling order in the
  // request must not split the cache key.
  const char* ab =
      "index a, b, e, l = 16\n"
      "R[a,b] = sum[e,l] P[a,e,l] * Q[e,l,b]\n";
  const char* ba =
      "index a, b, e, l = 16\n"
      "R[a,b] = sum[l,e] P[a,e,l] * Q[e,l,b]\n";
  EXPECT_EQ(canonical_text(ab), canonical_text(ba));
}

TEST(ServeCanonical, RenameQuotedSubstitutesWholeTokensOnly) {
  const std::vector<std::pair<std::string, std::string>> renames = {
      {"i0", "a"}, {"t0", "Total"}};
  // "i0" renames; "i01" and the unquoted i0 do not; schema words and
  // numbers are untouched.
  EXPECT_EQ(rename_quoted(R"({"x":"i0","y":"i01","t":"t0","k":10})",
                          renames),
            R"({"x":"a","y":"i01","t":"Total","k":10})");
}

TEST(ServeCanonical, RenameQuotedHandlesSwaps) {
  const std::vector<std::pair<std::string, std::string>> swap = {
      {"i0", "i1"}, {"i1", "i0"}};
  EXPECT_EQ(rename_quoted(R"(["i0","i1","i0"])", swap),
            R"(["i1","i0","i1"])");
}

TEST(ServeCanonical, RenameTextSubstitutesWholeTokensOnly) {
  const std::vector<std::pair<std::string, std::string>> renames = {
      {"i0", "a"}, {"t0", "Total"}};
  // Whole identifier tokens rename; "i01" and "xt0" do not.
  EXPECT_EQ(rename_text("intermediate 't0' uses i0, not i01 or xt0",
                        renames),
            "intermediate 'Total' uses a, not i01 or xt0");
}

TEST(ServeCanonical, RenameTextHandlesSwaps) {
  const std::vector<std::pair<std::string, std::string>> swap = {
      {"i0", "i1"}, {"i1", "i0"}};
  EXPECT_EQ(rename_text("i0 < i1", swap), "i1 < i0");
}

TEST(ServeCanonical, RenamesAreInAssignmentOrder) {
  // Request names chosen so lexicographic order disagrees with
  // first-appearance order: the contract is assignment order.
  const char* prog =
      "index z, a, q = 8\n"
      "C[z,a] = sum[q] B[z,q] * A[q,a]\n";
  const CanonicalProblem canon =
      canonicalize_program(parse_program(prog));
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"i0", "z"}, {"i1", "a"}, {"i2", "q"},
      {"t0", "C"}, {"t1", "B"}, {"t2", "A"}};
  EXPECT_EQ(canon.renames, expected);
}

TEST(ServeCanonical, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hex64(0xcbf29ce484222325ull), "cbf29ce484222325");
}

// ------------------------------------------------------------- LRU cache

TEST(ServePlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(2);
  cache.put("k1", "p1");
  cache.put("k2", "p2");
  ASSERT_TRUE(cache.get("k1").has_value());  // k1 now most recent
  cache.put("k3", "p3");                     // evicts k2, not k1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get("k1").has_value());
  EXPECT_FALSE(cache.get("k2").has_value());
  EXPECT_TRUE(cache.get("k3").has_value());
}

TEST(ServePlanCache, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.put("k", "p");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServePlanCache, RefreshKeepsOneEntryPerKey) {
  PlanCache cache(4);
  cache.put("k", "p1");
  cache.put("k", "p2");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get("k"), "p2");
}

// ---------------------------------------------------------------- server

std::string plan_request(const std::string& program,
                         const std::string& id = "t",
                         std::uint64_t mem_limit = 0) {
  json::ObjectWriter req;
  req.field("schema", "tce-serve/1")
      .field("op", "plan")
      .field("id", id)
      .field("program", program)
      .field("procs", 16);
  if (mem_limit > 0) req.field("mem_limit_bytes", mem_limit);
  return req.str();
}

json::Value handle(Server& server, const std::string& request) {
  return json::parse(server.handle(request));
}

/// The reply's "plan" member re-rendered; byte-stable because
/// ObjectWriter renders deterministically.
std::string plan_bytes(const std::string& reply) {
  const std::size_t at = reply.find("\"plan\":");
  EXPECT_NE(at, std::string::npos) << reply;
  // "plan" is the last member: strip the envelope's closing brace.
  return reply.substr(at + 7, reply.size() - (at + 7) - 1);
}

ServeOptions small_options() {
  ServeOptions o;
  o.threads = 1;  // keep unit tests cheap; plans are thread-invariant
  return o;
}

TEST(ServeServer, AlphaRenamedRequestHitsAndRepliesInRequestNames) {
  Server server(small_options());
  const json::Value miss = handle(server, plan_request(kChain, "m"));
  ASSERT_TRUE(miss.at("ok").boolean);
  EXPECT_EQ(miss.at("cache").string, "miss");

  const char* renamed =
      "index k = 32\n"
      "index p, q, r = 480\n"
      "Mid[p,q] = sum[k] Lf[p,k] * Rt[k,q]\n"
      "Out[p,r] = sum[q] Mid[p,q] * Ot[q,r]\n";
  const std::string reply = server.handle(plan_request(renamed, "h"));
  const json::Value hit = json::parse(reply);
  ASSERT_TRUE(hit.at("ok").boolean);
  EXPECT_EQ(hit.at("cache").string, "hit");
  EXPECT_EQ(hit.at("key").string, miss.at("key").string);
  // The cached canonical plan must come back in *this* request's
  // vocabulary, with no canonical names leaking.
  EXPECT_NE(reply.find("\"Mid\""), std::string::npos);
  EXPECT_NE(reply.find("\"Out\""), std::string::npos);
  EXPECT_EQ(reply.find("\"t0\""), std::string::npos);
  EXPECT_EQ(reply.find("\"i0\""), std::string::npos);
}

TEST(ServeServer, HitIsByteIdenticalToFreshSearch) {
  const char* renamed =
      "index k = 32\n"
      "index p, q, r = 480\n"
      "Mid[p,q] = sum[k] Lf[p,k] * Rt[k,q]\n"
      "Out[p,r] = sum[q] Mid[p,q] * Ot[q,r]\n";
  // Server A answers `renamed` from the cache (warmed by the
  // alpha-equivalent kChain); server B searches it fresh.
  Server warmed(small_options());
  ASSERT_TRUE(handle(warmed, plan_request(kChain)).at("ok").boolean);
  const std::string via_hit = warmed.handle(plan_request(renamed, "x"));
  Server fresh(small_options());
  const std::string via_search = fresh.handle(plan_request(renamed, "x"));
  EXPECT_EQ(json::parse(via_hit).at("cache").string, "hit");
  EXPECT_EQ(json::parse(via_search).at("cache").string, "miss");
  EXPECT_EQ(plan_bytes(via_hit), plan_bytes(via_search));
}

TEST(ServeServer, KeyDependsOnGridModelLimitAndFlags) {
  Server server(small_options());
  const auto key_of = [&](std::string extra_fields) {
    json::ObjectWriter req;
    req.field("op", "plan").field("program", kChain);
    std::string text = req.str();
    if (!extra_fields.empty()) {
      text.insert(text.size() - 1, "," + extra_fields);
    }
    const json::Value reply = handle(server, text);
    EXPECT_TRUE(reply.at("ok").boolean) << server.handle(text);
    return reply.at("key").string;
  };
  const std::string base = key_of("");
  EXPECT_NE(base, key_of("\"procs\":64"));
  EXPECT_NE(base, key_of("\"procs_per_node\":4"));
  EXPECT_NE(base, key_of("\"mem_limit_bytes\":40000000000"));
  EXPECT_NE(base, key_of("\"fusion\":false"));
  EXPECT_NE(base, key_of("\"redistribution\":false"));
  EXPECT_NE(base, key_of("\"replication\":true"));
  EXPECT_NE(base, key_of("\"liveness\":true"));
  // A request-supplied characterization table is a different model
  // fingerprint even when it describes the same grid.
  const std::string machine = characterize_itanium(16).save_string();
  EXPECT_NE(base, key_of("\"machine\":" + json::quote(machine)));
  // Same settings spelled explicitly → same key (and a cache hit).
  EXPECT_EQ(base, key_of("\"procs\":16,\"fusion\":true"));
}

TEST(ServeServer, AdmissionControlRejectsWithCertificate) {
  Server server(small_options());
  const json::Value reply =
      handle(server, plan_request(kChain, "r", /*mem_limit=*/1000));
  ASSERT_FALSE(reply.at("ok").boolean);
  const json::Value& err = reply.at("error");
  EXPECT_EQ(err.at("code").string, "infeasible");
  EXPECT_EQ(err.at("rule").string, "mem.infeasible");
  const json::Value& cert = err.at("certificate");
  EXPECT_GT(cert.at("lower_bound_node_bytes").integer, 1000u);
  EXPECT_EQ(cert.at("mem_limit_node_bytes").integer, 1000u);
  // The binding node is reported in the request's vocabulary.
  const std::string node = cert.at("node").string;
  EXPECT_TRUE(node == "X" || node == "Y" || node == "Z" || node == "T" ||
              node == "S")
      << node;
  // Rejected before any search: nothing was cached.
  EXPECT_EQ(server.cache().size(), 0u);
}

TEST(ServeServer, MachineTableServesOnlyItsOwnGrid) {
  // A 16×2 table plans 16×2 requests.  At 64×2 or 16×4 it is the
  // request's fault on every request, also once the table is resident
  // from a 16×2 request, and nothing is cached for those requests.
  Server server(small_options());
  const std::string machine = characterize_itanium(16, 2).save_string();
  const auto request = [&](std::uint32_t procs, std::uint32_t per_node) {
    return json::ObjectWriter()
        .field("op", "plan")
        .field("program", kChain)
        .field("procs", procs)
        .field("procs_per_node", per_node)
        .field("machine", machine)
        .str();
  };
  const auto expect_rejected = [&] {
    for (const auto& [procs, per_node] :
         {std::pair{64u, 2u}, std::pair{16u, 4u}}) {
      const json::Value reply = handle(server, request(procs, per_node));
      EXPECT_EQ(reply.at("error").at("code").string, "input")
          << procs << "x" << per_node;
      EXPECT_NE(reply.at("error").at("message").string.find(
                    "16 processors at 2 per node"),
                std::string::npos);
    }
  };
  expect_rejected();
  EXPECT_EQ(server.cache().size(), 0u);
  const json::Value own = handle(server, request(16, 2));
  ASSERT_TRUE(own.at("ok").boolean);
  EXPECT_EQ(server.cache().size(), 1u);
  expect_rejected();
  EXPECT_EQ(server.cache().size(), 1u);
}

TEST(ServeServer, ErrorCodesAreStable) {
  Server server(small_options());
  EXPECT_EQ(handle(server, "not json").at("error").at("code").string,
            "usage");
  EXPECT_EQ(handle(server, "[1,2]").at("error").at("code").string,
            "usage");
  EXPECT_EQ(handle(server, R"({"op":"nope"})")
                .at("error")
                .at("code")
                .string,
            "usage");
  EXPECT_EQ(handle(server, R"({"op":"plan"})")
                .at("error")
                .at("code")
                .string,
            "usage");
  EXPECT_EQ(
      handle(server,
             R"({"op":"plan","program":"index a = 4\nT[a] = X[a"})")
          .at("error")
          .at("code")
          .string,
      "input");
  EXPECT_EQ(handle(server, R"({"schema":"tce-serve/2","op":"ping"})")
                .at("error")
                .at("code")
                .string,
            "usage");
  // A version 1 characterization table (no collective curves) is the
  // request's fault, not an internal error.
  const std::string v3 = characterize_itanium(16).save_string();
  const std::size_t body = v3.find('\n');
  const std::string v1 = "tce-characterization 1" +
                         v3.substr(body, v3.find("allgather ") - body);
  std::string legacy = plan_request(kChain);
  legacy.insert(legacy.size() - 1,
                ",\"replication\":true,\"machine\":" + json::quote(v1));
  EXPECT_EQ(handle(server, legacy).at("error").at("code").string, "input");
}

TEST(ServeServer, GridFieldsThatFormNoGridAreUsageErrors) {
  // A "procs" that is not a positive perfect square, or a
  // "procs_per_node" that does not divide it, is a malformed request.
  Server server(small_options());
  for (const auto& [procs, per_node] :
       {std::pair{15, 1}, std::pair{0, 1}, std::pair{16, 3}}) {
    const json::Value reply =
        handle(server, json::ObjectWriter()
                           .field("op", "plan")
                           .field("program", kChain)
                           .field("procs", procs)
                           .field("procs_per_node", per_node)
                           .str());
    EXPECT_EQ(reply.at("error").at("code").string, "usage")
        << procs << " " << per_node;
  }
}

TEST(ServeServer, ErrorsFromTheCanonicalTreeUseRequestNames) {
  Server server(small_options());
  // Parses and canonicalizes fine, but T is consumed twice, so the
  // error ("intermediate consumed 2 times") is raised only while
  // building the *canonical* tree — it blames t0 and must come back
  // as 'T', the name the client actually wrote.
  const char* dag =
      "index a, b, i = 8\n"
      "T[a,b] = sum[i] X[a,i] * Y[i,b]\n"
      "S[a,b] = T[a,b] * T[a,b]\n";
  const json::Value reply = handle(server, plan_request(dag, "e"));
  ASSERT_FALSE(reply.at("ok").boolean);
  EXPECT_EQ(reply.at("error").at("code").string, "input");
  const std::string msg = reply.at("error").at("message").string;
  EXPECT_NE(msg.find("intermediate 'T' consumed"), std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("t0"), std::string::npos) << msg;
}

TEST(ServeServer, LruEvictionForcesAReSearch) {
  ServeOptions options = small_options();
  options.cache_capacity = 1;
  Server server(options);
  const char* other =
      "index a, b = 64\n"
      "index i = 16\n"
      "R[a,b] = sum[i] P[a,i] * Q[i,b]\n";
  EXPECT_EQ(handle(server, plan_request(kChain)).at("cache").string,
            "miss");
  EXPECT_EQ(handle(server, plan_request(other)).at("cache").string,
            "miss");  // evicts kChain
  EXPECT_EQ(handle(server, plan_request(kChain)).at("cache").string,
            "miss");  // had been evicted
  EXPECT_EQ(handle(server, plan_request(kChain)).at("cache").string,
            "hit");
  EXPECT_EQ(server.cache().evictions(), 2u);
}

TEST(ServeServer, VerifyCacheModePassesOnHonestHits) {
  ServeOptions options = small_options();
  options.verify_cache = true;
  Server server(options);
  obs::ScopedMetrics metrics;
  EXPECT_EQ(handle(server, plan_request(kChain)).at("cache").string,
            "miss");
  EXPECT_EQ(handle(server, plan_request(kChain)).at("cache").string,
            "hit");
  EXPECT_EQ(obs::counter_value("serve.verify.ok"), 1u);
  EXPECT_EQ(obs::counter_value("serve.verify.mismatch"), 0u);
}

TEST(ServeServer, PingAndMetricsAndShutdownOps) {
  Server server(small_options());
  obs::ScopedMetrics metrics;
  ASSERT_TRUE(handle(server, plan_request(kChain)).at("ok").boolean);
  const json::Value ping = handle(server, R"({"op":"ping","id":"7"})");
  EXPECT_TRUE(ping.at("ok").boolean);
  EXPECT_EQ(ping.at("id").string, "7");
  EXPECT_EQ(ping.at("cache").at("misses").integer, 1u);
  const json::Value m = handle(server, R"({"op":"metrics"})");
  EXPECT_TRUE(m.at("metrics").find("serve.cache.miss") != nullptr);
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_TRUE(handle(server, R"({"op":"shutdown"})").at("ok").boolean);
  EXPECT_TRUE(server.shutdown_requested());
}

// ----------------------------------------------------- concurrent storms

TEST(ServeServer, ConcurrentHitMissStormRepliesAreByteIdentical) {
  Server server(small_options());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  // Two distinct problems, each with per-thread alpha-renamed
  // spellings, all in flight at once: every reply for the same
  // (problem, spelling) must be byte-identical no matter which thread
  // won the search and which ones hit the cache.
  const auto spelling = [](int problem, int t) {
    const auto label = [t](char c) {
      std::string s(1, c);
      s += std::to_string(t);
      return s;
    };
    const std::string ix = label('x');
    const std::string iy = label('y');
    const std::string ik = label('k');
    const std::string extent = problem == 0 ? "64" : "96";
    return "index " + ix + ", " + iy + " = " + extent + "\nindex " + ik +
           " = 16\nR" + std::to_string(t) + "[" + ix + "," + iy +
           "] = sum[" + ik + "] P" + std::to_string(t) + "[" + ix + "," +
           ik + "] * Q" + std::to_string(t) + "[" + ik + "," + iy + "]\n";
  };
  std::vector<std::vector<std::string>> replies(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int q = 0; q < kPerThread; ++q) {
        replies[t].push_back(
            server.handle(plan_request(spelling(q % 2, t), "c")));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kPerThread; ++q) {
      ASSERT_TRUE(json::parse(replies[t][q]).at("ok").boolean)
          << replies[t][q];
      // Same (problem, spelling) → byte-identical plan, hit or miss.
      EXPECT_EQ(plan_bytes(replies[t][q]),
                plan_bytes(replies[t][q % 2]));
    }
  }
  // Exactly two searches happened; everything else hit.
  EXPECT_EQ(server.cache().size(), 2u);
  EXPECT_EQ(server.cache().hits() + server.cache().misses(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ServePlanCache, ConcurrentGetPutIsRaceFree) {
  PlanCache cache(8);
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> found{0};
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        std::string key = "k";
        key += std::to_string((t + i) % 12);
        if (cache.get(key).has_value()) {
          found.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.put(key, "plan-" + key);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits(), found.load());
}

// ------------------------------------------------------------ serve_loop

TEST(ServeLoop, BareJsonLinesAndShutdown) {
  Server server(small_options());
  std::istringstream in(R"({"op":"ping"})"
                        "\n"
                        R"({"op":"shutdown"})"
                        "\n"
                        R"({"op":"ping","id":"after"})"
                        "\n");
  std::ostringstream out;
  EXPECT_EQ(serve_loop(server, in, out), 0);
  const std::string text = out.str();
  // The ping and the shutdown got replies; the loop ended before the
  // third request.
  EXPECT_NE(text.find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(text.find("\"op\":\"shutdown\""), std::string::npos);
  EXPECT_EQ(text.find("after"), std::string::npos);
}

TEST(ServeLoop, LengthPrefixedFramesMirrorTheFraming) {
  Server server(small_options());
  const std::string payload = R"({"op":"ping"})";
  std::istringstream in(std::to_string(payload.size()) + "\n" + payload +
                        "\n");
  std::ostringstream out;
  EXPECT_EQ(serve_loop(server, in, out), 0);
  // Framed request → framed reply: "<len>\n<payload>\n".
  const std::string text = out.str();
  const std::size_t nl = text.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const std::size_t len = std::stoul(text.substr(0, nl));
  ASSERT_EQ(text.size(), nl + 1 + len + 1);
  const json::Value reply = json::parse(text.substr(nl + 1, len));
  EXPECT_TRUE(reply.at("ok").boolean);
}

TEST(ServeLoop, BadFrameLengthAnswersUsageAndCloses) {
  Server server(small_options());
  std::istringstream in("zzz\n{\"op\":\"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(serve_loop(server, in, out), 0);
  const json::Value reply =
      json::parse(out.str().substr(0, out.str().find('\n')));
  EXPECT_FALSE(reply.at("ok").boolean);
  EXPECT_EQ(reply.at("error").at("code").string, "usage");
  // The stream closed on desync: the trailing ping was never answered.
  EXPECT_EQ(out.str().find("\"op\":\"ping\""), std::string::npos);
}

TEST(ServeLoop, MetricsScrapeAnswersPrometheusAndCloses) {
  Server server(small_options());
  obs::ScopedMetrics metrics;
  ASSERT_TRUE(handle(server, plan_request(kChain)).at("ok").boolean);
  std::istringstream in(
      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
      "{\"op\":\"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(serve_loop(server, in, out), 0);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("HTTP/1.0 200 OK", 0), 0u) << text;
  EXPECT_NE(text.find("tce_serve_cache_miss_total"), std::string::npos);
  // Scrape connections are one-shot.
  EXPECT_EQ(text.find("\"op\":\"ping\""), std::string::npos);
}

TEST(ServeLoop, UnknownHttpPathIs404) {
  Server server(small_options());
  std::istringstream in("GET /other HTTP/1.1\r\n\r\n");
  std::ostringstream out;
  EXPECT_EQ(serve_loop(server, in, out), 0);
  EXPECT_EQ(out.str().rfind("HTTP/1.0 404 Not Found", 0), 0u);
}

// ------------------------------------------------------------ unix socket

#ifdef __linux__

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Connects to \p path, writes \p payload, drains the reply until the
/// server ends the stream, and closes the client fd.
void one_shot(const std::string& path, const std::string& payload) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  ASSERT_EQ(::write(fd, payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
}

TEST(ServeSocket, OneShotConnectionsAreReaped) {
  // Regression: the accept loop must join finished connection threads
  // and close their fds as it goes — Prometheus scrapes are one-shot,
  // so a daemon that only reaps at shutdown leaks one fd per scrape
  // until accept() dies with EMFILE.
  Server server(small_options());
  const std::string path = ::testing::TempDir() + "tce_serve_reap.sock";
  std::thread daemon([&] { serve_unix_socket(server, path); });
  // Wait for the socket file to be bound.
  for (int i = 0; i < 500 && ::access(path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string scrape = "GET /metrics HTTP/1.0\r\n\r\n";
  one_shot(path, scrape);  // warm any lazily opened descriptors
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t baseline = open_fd_count();
  ASSERT_GT(baseline, 0u);
  constexpr int kScrapes = 32;
  for (int i = 0; i < kScrapes; ++i) one_shot(path, scrape);
  // Reaping rides the accept loop's poll wakeups (≤ 200 ms apart);
  // give it a bounded moment to drain.
  std::size_t now = open_fd_count();
  for (int i = 0; i < 500 && now > baseline + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = open_fd_count();
  }
  EXPECT_LE(now, baseline + 2) << "leaked ~" << (now - baseline)
                               << " fds over " << kScrapes << " scrapes";
  one_shot(path, "{\"op\":\"shutdown\"}\n");
  daemon.join();
}

#endif  // __linux__

}  // namespace
}  // namespace tce::serve
