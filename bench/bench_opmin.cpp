// Reproduces §2's operation-minimization observations: the 4-factor
// NWChem expression costs 4N^10 evaluated directly but 6N^6 after
// factoring through the intermediates T1, T2 (Fig. 2(a)); and the Fig. 1
// example drops from 2·Ni·Nj·Nk·Nt to Ni·Nj·Nt + Nj·Nk·Nt + 2·Nj·Nt.

#include "tce/common/table.hpp"
#include "tce/opmin/opmin.hpp"

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tce;
  using namespace tce::bench;
  BenchOutput out("opmin", argc, argv);
  reject_unknown_args(argc, argv);

  heading("Operation minimization — §2 examples");

  {
    TextTable table({"N", "naive (4N^10)", "optimal (6N^6)", "speedup"});
    for (std::size_t c = 1; c < 4; ++c) table.set_right_aligned(c);
    for (std::uint64_t n : {10ull, 20ull, 40ull, 80ull}) {
      ParsedProgram p = parse_program(
          "index a, b, c, d, e, f, i, j, k, l = " + std::to_string(n) +
          "\nS[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * "
          "C[d,f,j,k] * D[c,d,e,l]");
      OpMinResult r = minimize_operations(
          OpMinInput::from_statement(p.statements[0]), p.space);
      const bool saturated =
          r.naive_flops == std::numeric_limits<std::uint64_t>::max();
      json::ObjectWriter fields;
      fields.field("example", "4-factor NWChem")
          .field("n", n)
          .field("naive_saturated", saturated)
          .field("optimal_flops", r.flops);
      if (!saturated) fields.field("naive_flops", r.naive_flops);
      out.row(fields);
      table.add_row({std::to_string(n),
                     saturated ? ">1.8e19 (saturated)"
                               : std::to_string(r.naive_flops),
                     std::to_string(r.flops),
                     saturated
                         ? "-"
                         : fixed(static_cast<double>(r.naive_flops) /
                                     static_cast<double>(r.flops),
                                 1) +
                               "x"});
    }
    std::printf("%s\n", table.str().c_str());
  }

  {
    std::printf("paper extents (480/64/32):\n");
    ParsedProgram p = parse_program(R"(
      index a, b, c, d = 480
      index e, f = 64
      index i, j, k, l = 32
      S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l]
    )");
    OpMinResult r = minimize_operations(
        OpMinInput::from_statement(p.statements[0]), p.space);
    std::printf("  optimal flops: %.3e (naive saturates >1.8e19)\n",
                static_cast<double>(r.flops));
    out.row(json::ObjectWriter()
                .field("example", "paper extents")
                .field("optimal_flops", r.flops)
                .field("largest_intermediate_elems",
                       r.largest_intermediate));
    std::printf("  largest intermediate: %.3e elements (T1's 55.3 GB)\n",
                static_cast<double>(r.largest_intermediate));
    std::printf("  recovered formula sequence (cf. Fig. 2(a)):\n%s\n",
                r.sequence.str().c_str());
  }

  {
    std::printf("Fig. 1 example, Ni=10 Nj=20 Nk=30 Nt=5:\n");
    ParsedProgram p = parse_program(R"(
      index i = 10
      index j = 20
      index k = 30
      index t = 5
      S[t] = sum[i,j,k] A[i,j,t] * B[j,k,t]
    )");
    OpMinResult r = minimize_operations(
        OpMinInput::from_statement(p.statements[0]), p.space);
    std::printf("  naive 2NiNjNkNt = %llu, optimal NiNjNt+NjNkNt+2NjNt = "
                "%llu\n",
                static_cast<unsigned long long>(r.naive_flops),
                static_cast<unsigned long long>(r.flops));
    std::printf("  recovered formula sequence (cf. Fig. 1(a)):\n%s\n",
                r.sequence.str().c_str());
    out.row(json::ObjectWriter()
                .field("example", "fig1")
                .field("naive_flops", r.naive_flops)
                .field("optimal_flops", r.flops));
  }
  out.finish();
  return 0;
}
