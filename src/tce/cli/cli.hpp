#pragma once
/// \file cli.hpp
/// The `tcemin` command-line interface, as a library so it is testable.
///
/// Subcommands:
///   plan <program>        optimize a contraction program for a machine
///   lint <program>        static analysis of a program (no search)
///   opmin <program>       operation-minimize a multi-term product
///   characterize          measure a (simulated) machine -> table file
///   fuzz                  differential fuzzing of the planner (oracles)
///
/// `tcemin help` prints the full usage text.  Program files use the DSL
/// of tce/expr/parser.hpp; machine files use the characterization format
/// of tce/costmodel/characterization.hpp.

#include <string>
#include <vector>

#include "tce/common/error.hpp"

namespace tce {

/// Exit codes returned by run_cli.  Every failure path maps to exactly
/// one of these (documented in `tcemin help`):
///   0  success
///   1  usage error (unknown command/flag, missing or malformed option)
///   2  no plan fits the memory limit (InfeasibleError)
///   3  I/O error (a file could not be opened, read or written)
///   4  input error (program / machine / plan file failed to parse or
///      is semantically invalid, e.g. a --machine procs mismatch)
///   5  plan verification failed (--verify found diagnostics)
///   6  fuzzing found an oracle disagreement
///   7  internal error (contract violation or unexpected exception)
///   8  lint found diagnostics of error severity (`tcemin lint`)
enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 1,
  kExitInfeasible = 2,
  kExitIo = 3,
  kExitInput = 4,
  kExitVerify = 5,
  kExitFuzz = 6,
  kExitInternal = 7,
  kExitLint = 8,
};

/// Raised on malformed command lines (unknown flag, missing value, ...).
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// Raised when `--verify` finds diagnostics; carries the full listing.
class VerifyFailedError : public Error {
 public:
  explicit VerifyFailedError(const std::string& what) : Error(what) {}
};

/// Raised when `tcemin lint` finds error-severity diagnostics; carries
/// the full report (the report is also printed to stdout).
class LintFindingsError : public Error {
 public:
  explicit LintFindingsError(const std::string& what) : Error(what) {}
};

/// Outcome of one CLI invocation.
struct CliResult {
  int exit_code = 0;
  std::string output;  ///< What would go to stdout.
  std::string error;   ///< What would go to stderr (empty on success).
};

/// Runs the CLI on \p args (argv[1..]); never throws — errors are
/// reported through exit_code/error.
CliResult run_cli(const std::vector<std::string>& args);

/// Parses a byte-size argument: plain bytes ("1000000"), or with a
/// KB/MB/GB/TB suffix (decimal, e.g. "4GB" = 4e9).  The number has at
/// least one digit and at most one dot ("1.5GB", ".5GB").  Throws
/// tce::Error on malformed or out-of-range input, and on a positive
/// size below one byte ("0.5B"), which would truncate to 0 = unlimited.
std::uint64_t parse_byte_size(const std::string& text);

}  // namespace tce
