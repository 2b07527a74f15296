#pragma once
/// \file corpus.hpp
/// Seeded generation of the benchmark's inputs: coupled-cluster-style
/// contraction programs, their alpha-renamed spellings, and the Zipf
/// popularity used by the serving workload.  Everything here is a pure
/// function of the seed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tce/common/rng.hpp"

namespace perfbench {

/// The paper's §4 program, verbatim (Tables 1 and 2).
extern const char* const kPaperProgram;

/// The quadratic CCD doubles term of examples/ccsd_term.cpp, verbatim:
/// a three-factor statement that goes through operation minimization.
extern const char* const kCcdProgram;

/// One contraction program in structured form, so it can be re-spelled:
/// index declarations (name, extent) and statements written over those
/// names and the tensor names.
struct Program {
  std::vector<std::pair<std::string, std::uint64_t>> decls;
  std::vector<std::string> stmts;
};

/// Renders \p p as DSL text, one `index` line per declaration.
std::string render(const Program& p);

/// An alpha-renamed copy of \p p: every index and tensor gets a fresh
/// name drawn from \p rng and the declarations are shuffled.  The map
/// from old to new names goes to \p renames when given.
Program respell(const Program& p, tce::Rng& rng,
                std::map<std::string, std::string>* renames = nullptr);

/// Extent classes of coupled-cluster programs.
struct Extents {
  std::uint64_t occ = 32;   ///< occupied orbitals (i, j, k, l)
  std::uint64_t virt = 256; ///< virtual orbitals (a, b, c, d)
  std::uint64_t aux = 64;   ///< the paper's e, f range
};

/// Number of program families (paper chain, ladder pair, ring pair,
/// CCD quadratic term, four-index transform).
inline constexpr int kFamilies = 5;

/// Name of family \p f.
const char* family_name(int f);

/// True when family \p f has a statement with three factors (needs
/// operation minimization before planning).
bool family_needs_opmin(int f);

/// Program of family \p f at extents \p x.
Program family_program(int f, const Extents& x);

/// One planner problem: program text plus machine and optimizer knobs.
struct Problem {
  std::string label;
  std::string text;
  std::uint32_t procs = 16;
  std::uint64_t mem_limit_node_bytes = 0;  ///< 0 = unlimited
  bool replication = false;
  bool liveness = false;
  bool opmin = false;
  /// Settings taken verbatim from the paper or an example; set-up never
  /// adjusts their memory limit.
  bool verbatim = false;
};

/// Σ unfused array bytes per node of \p text on \p procs processors at
/// two processors per node: the memory the unfused plan needs before
/// its message buffer.
std::uint64_t unfused_node_bytes(const std::string& text, bool opmin,
                                 std::uint32_t procs);

/// The cold-planning corpus: the paper program at the Table 1 and
/// Table 2 settings (and at Table 1's with replication, the corpus's
/// most expensive search) and the CCD term, verbatim, then one seeded
/// problem per (processor count, family, memory regime), with
/// replication or liveness on about a quarter of them.  Memory limits of
/// seeded problems are first guesses; set-up raises any that turn out
/// infeasible.
std::vector<Problem> plan_corpus(std::uint64_t seed);

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(tce::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
