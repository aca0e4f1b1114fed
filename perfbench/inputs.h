//===- inputs.h - Benchmark inputs and their expected verdicts ----*- C++ -*-===//
//
// The decision problems the benchmark sends to xsolved. Every problem
// carries the verdict it must get, taken from the paper (Table 2) or
// from how the problem was built — never from an earlier run of the
// program.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: fixed arithmetic, so a seed names the same inputs on
/// every platform and standard library.
struct SplitMix {
  uint64_t State;
  uint64_t next();
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Problem {
  std::string Name; ///< Table 2 row label; "" for generated problems
  std::string Op;   ///< contains, overlap, empty, equiv or cover
  std::string E1, E2;
  std::vector<std::string> Others; ///< cover only
  std::string Dtd;                 ///< "", wikipedia, smil or xhtml
  bool Holds = false;              ///< the expected verdict
  /// Untyped and built only from label-independent constructions, so
  /// renaming its labels keeps the verdict (see renamed()).
  bool Renamable = false;

  /// The xsolved request line for this problem.
  std::string requestLine(const std::string &Id) const;
};

/// The eight requests of the paper's Table 2 in row order (nine solver
/// runs: the equivalence of row 2 is two containments), each with the
/// published verdict.
std::vector<Problem> table2Problems();

/// A seeded stream of small decision problems, each distinct from every
/// other problem of every stream (each holds labels minted for it).
/// Shapes vary in axes, qualifiers and schema (none, wikipedia, smil).
class ProblemStream {
public:
  /// \p Tag keeps the minted labels of two streams of one seed apart.
  ProblemStream(uint64_t Seed, std::string Tag);
  Problem next();

private:
  SplitMix Rng;
  std::string Tag;
  uint64_t Serial = 0;

  unsigned below(unsigned N) { return Rng.below(N); }
  bool chance(unsigned Percent) { return below(100) < Percent; }

  struct Shape;
  std::string label(Shape &S);
  std::string step(Shape &S, bool First);
  std::string qualifier(Shape &S, bool Positive);
  std::string path(Shape &S, bool Positive);
};

/// \p P with every name test L renamed to L_<Suffix>: a problem no
/// cache has seen whose lean is isomorphic to P's. Only for Renamable
/// problems.
Problem renamed(const Problem &P, const std::string &Suffix);

/// Samples an index in [0, N) with probability proportional to
/// 1/(rank+1) — a Zipf draw with exponent 1 — from \p U in [0, 1).
class ZipfTable {
public:
  explicit ZipfTable(size_t N);
  size_t draw(double U) const;

private:
  std::vector<double> Cdf;
};

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
