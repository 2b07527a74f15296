#include "corpus.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "tce/expr/contraction.hpp"
#include "tce/expr/parser.hpp"
#include "tce/opmin/opmin.hpp"

namespace perfbench {

const char* const kPaperProgram = R"(
  index a, b, c, d = 480
  index e, f = 64
  index i, j, k, l = 32
  T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
  T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
  S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
)";

const char* const kCcdProgram = R"(
    index i, j, k, l = 64        # occupied
    index a, b, c, d = 256       # virtual
    R[a,b,i,j] = sum[k,l,c,d] W[k,l,c,d] * Ta[a,c,i,k] * Tb[d,b,l,j]
  )";

namespace {

/// Statement lists of the families, over single-letter index names:
/// a-d virtual, i-l occupied, e-f the paper's auxiliary range, p-s the
/// atomic-orbital range of the transform.
struct FamilySpec {
  const char* name;
  const char* indices;  // "<names>:<class>" groups, class v/o/x/n
  std::vector<const char*> stmts;
};

const FamilySpec& spec(int f) {
  static const FamilySpec kSpecs[kFamilies] = {
      {"paper-chain",
       "abcd:v ef:x ijkl:o",
       {"T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]",
        "T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]",
        "S[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]"}},
      {"ladder-pair",
       "abcd:v ijkl:o",
       {"X[a,b,k,l] = sum[c,d] V[a,b,c,d] * T[c,d,k,l]",
        "R[a,b,i,j] = sum[k,l] X[a,b,k,l] * W[k,l,i,j]"}},
      {"ring-pair",
       "abcd:v ijkl:o",
       {"X[a,k,i,c] = sum[l,d] W[k,l,c,d] * T[a,d,i,l]",
        "R[a,b,i,j] = sum[k,c] X[a,k,i,c] * U[c,b,k,j]"}},
      {"ccd-quadratic",
       "abcd:v ijkl:o",
       {"R[a,b,i,j] = sum[k,l,c,d] W[k,l,c,d] * Ta[a,c,i,k] * Tb[d,b,l,j]"}},
      {"four-index-transform",
       "abcd:n pqrs:n",
       {"T1[a,q,r,s] = sum[p] C1[p,a] * G[p,q,r,s]",
        "T2[a,b,r,s] = sum[q] C2[q,b] * T1[a,q,r,s]",
        "T3[a,b,c,s] = sum[r] C3[r,c] * T2[a,b,r,s]",
        "M[a,b,c,d] = sum[s] C4[s,d] * T3[a,b,c,s]"}},
  };
  return kSpecs[f];
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Applies \p names to every identifier of \p stmt except `sum`.
std::string rename_idents(const std::string& stmt,
                          const std::map<std::string, std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < stmt.size();) {
    if (!ident_start(stmt[i])) {
      out += stmt[i++];
      continue;
    }
    std::size_t j = i;
    while (j < stmt.size() && ident_char(stmt[j])) ++j;
    const std::string tok = stmt.substr(i, j - i);
    const auto it = names.find(tok);
    out += it == names.end() ? tok : it->second;
    i = j;
  }
  return out;
}

std::uint64_t pick(tce::Rng& rng, std::initializer_list<std::uint64_t> xs) {
  const auto i = rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1);
  return *(xs.begin() + i);
}

}  // namespace

std::string render(const Program& p) {
  std::string out;
  for (const auto& [name, extent] : p.decls) {
    out += "index " + name + " = " + std::to_string(extent) + "\n";
  }
  for (const std::string& s : p.stmts) out += s + "\n";
  return out;
}

Program respell(const Program& p, tce::Rng& rng,
                std::map<std::string, std::string>* renames) {
  std::map<std::string, std::string> names;
  std::set<std::string> used;
  const auto fresh = [&](char prefix) {
    for (;;) {
      std::string n = prefix + std::to_string(rng.uniform_int(100, 9999));
      if (used.insert(n).second) return n;
    }
  };
  for (const auto& d : p.decls) names[d.first] = fresh('x');
  for (const std::string& s : p.stmts) {
    for (std::size_t i = 0; i < s.size();) {
      if (!ident_start(s[i])) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < s.size() && ident_char(s[j])) ++j;
      const std::string tok = s.substr(i, j - i);
      if (tok != "sum" && !names.contains(tok)) names[tok] = fresh('Q');
      i = j;
    }
  }
  Program out;
  for (const auto& [name, extent] : p.decls) {
    out.decls.emplace_back(names.at(name), extent);
  }
  std::shuffle(out.decls.begin(), out.decls.end(), rng.engine());
  for (const std::string& s : p.stmts) {
    out.stmts.push_back(rename_idents(s, names));
  }
  if (renames != nullptr) *renames = std::move(names);
  return out;
}

const char* family_name(int f) { return spec(f).name; }

bool family_needs_opmin(int f) {
  for (const char* s : spec(f).stmts) {
    if (std::count(s, s + std::char_traits<char>::length(s), '*') > 1) {
      return true;
    }
  }
  return false;
}

Program family_program(int f, const Extents& x) {
  Program p;
  const std::string groups = spec(f).indices;
  std::size_t i = 0;
  while (i < groups.size()) {
    const std::size_t colon = groups.find(':', i);
    const char cls = groups[colon + 1];
    const std::uint64_t extent = cls == 'v'   ? x.virt
                                 : cls == 'o' ? x.occ
                                 : cls == 'x' ? x.aux
                                              : x.virt / 2;
    for (std::size_t k = i; k < colon; ++k) {
      p.decls.emplace_back(std::string(1, groups[k]), extent);
    }
    i = colon + 3;  // skip ":<class> "
  }
  for (const char* s : spec(f).stmts) p.stmts.emplace_back(s);
  return p;
}

std::uint64_t unfused_node_bytes(const std::string& text, bool opmin,
                                 std::uint32_t procs) {
  const tce::ParsedProgram program = tce::parse_program(text);
  const tce::ContractionTree tree = tce::ContractionTree::from_sequence(
      opmin ? tce::binarize_program(program)
            : tce::to_formula_sequence(program));
  return tree.total_bytes_unfused() / procs * 2;
}

std::vector<Problem> plan_corpus(std::uint64_t seed) {
  constexpr std::uint64_t kGB = 1000ull * 1000 * 1000;
  std::vector<Problem> out;
  out.push_back({"paper-table1", kPaperProgram, 64, 4 * kGB});
  out.push_back({"paper-table2", kPaperProgram, 16, 4 * kGB});
  // Being about 2% of ops and the slowest, this problem alone sets the
  // run's p99, which therefore does not depend on the seed.
  out.push_back({"paper-table1-repl", kPaperProgram, 64, 4 * kGB, true});
  out.push_back({"ccd-example-p16", kCcdProgram, 16, 8 * kGB, false, false,
                 true});
  out.push_back({"ccd-example-p64", kCcdProgram, 64, 6 * kGB / 5, false,
                 false, true});
  for (Problem& p : out) p.verbatim = true;

  tce::Rng rng(seed);
  static const char* const kRegimes[] = {"forcing", "moderate", "unlimited"};
  int n = 0;
  for (std::uint32_t procs : {16u, 64u, 256u}) {
    for (int f = 0; f < kFamilies; ++f) {
      for (int regime = 0; regime < 3; ++regime, ++n) {
        Extents x;
        x.occ = pick(rng, {24, 32, 40, 48, 56, 64});
        x.virt = pick(rng, {192, 256, 320, 384, 448, 512});
        x.aux = pick(rng, {32, 48, 64, 80});
        Problem p;
        p.opmin = family_needs_opmin(f);
        p.text = render(family_program(f, x));
        p.procs = procs;
        const double unfused =
            static_cast<double>(unfused_node_bytes(p.text, p.opmin, procs));
        if (regime == 0) {
          p.mem_limit_node_bytes =
              static_cast<std::uint64_t>(unfused * rng.uniform_real(0.3, 0.7));
        } else if (regime == 1) {
          p.mem_limit_node_bytes =
              static_cast<std::uint64_t>(unfused * rng.uniform_real(1.1, 2.0));
        }
        // A fixed quarter of the grid (not a seeded one), so every seed
        // carries the same mix of the expensive replication searches.
        if (n % 4 == 3) {
          if ((n / 4) % 2 == 0) {
            p.replication = true;
          } else {
            p.liveness = true;
          }
        }
        p.label = std::string(family_name(f)) + "/p" + std::to_string(procs) +
                  "/" + kRegimes[regime] +
                  (p.replication ? "/repl" : p.liveness ? "/live" : "");
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

Zipf::Zipf(std::size_t n, double s) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(tce::Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace perfbench
