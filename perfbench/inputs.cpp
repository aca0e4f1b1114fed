//===- inputs.cpp - Benchmark inputs and their expected verdicts ----------===//

#include "inputs.h"

#include "service/Json.h"
#include "xtype/BuiltinDtds.h"

#include <algorithm>
#include <cctype>
#include <set>

using namespace perfbench;

std::string Problem::requestLine(const std::string &Id) const {
  std::string L = "{\"id\":" + xsa::jsonQuote(Id) + ",\"op\":\"" + Op +
                  "\",\"e1\":" + xsa::jsonQuote(E1);
  if (!E2.empty())
    L += ",\"e2\":" + xsa::jsonQuote(E2);
  if (!Others.empty()) {
    L += ",\"others\":[";
    for (size_t I = 0; I < Others.size(); ++I)
      L += (I ? "," : "") + xsa::jsonQuote(Others[I]);
    L += "]";
  }
  if (!Dtd.empty())
    L += ",\"dtd\":\"" + Dtd + "\"";
  return L + "}";
}

std::vector<Problem> perfbench::table2Problems() {
  // Figure 21's queries. Two transcription choices (README.md): e5 is
  // a//c/following::d/e, the only reading that gives the published
  // verdict, and e10..e12 are anchored at /self::html because this data
  // model has no document node above the root element.
  const std::string E1 = "/a[.//b[c/*//d]/b[c//d]/b[c/d]]";
  const std::string E2 = "/a[.//b[c/*//d]/b[c/d]]";
  const std::string E3 = "a/b//c/foll-sibling::d/e";
  const std::string E4 = "a/b//d[prec-sibling::c]/e";
  const std::string E5 = "a//c/following::d/e";
  const std::string E6 = "a/b[//c]/following::d/e & a/d[preceding::c]/e";
  const std::string E7 =
      "*//switch[ancestor::head]//seq//audio[prec-sibling::video]";
  const std::string E8 = "descendant::a[ancestor::a]";
  const std::string E9 = "/descendant::*";
  std::vector<Problem> Rows = {
      {"row1:e1<=e2", "contains", E1, E2, {}, "", true},
      {"row1:e2<=e1", "contains", E2, E1, {}, "", false},
      {"row2:e3==e4", "equiv", E3, E4, {}, "", true},
      {"row3:e6<=e5", "contains", E6, E5, {}, "", true},
      {"row3:e5<=e6", "contains", E5, E6, {}, "", false},
      {"row4:e7-sat-smil", "empty", E7, "", {}, "smil", false},
      {"row5:e8-sat-xhtml", "empty", E8, "", {}, "xhtml", false},
      {"row6:e9-covered-xhtml",
       "cover",
       E9,
       "",
       {"/self::html/(head | body)", "/self::html/head/descendant::*",
        "/self::html/body/descendant::*"},
       "xhtml",
       true},
  };
  return Rows;
}

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

const std::vector<std::string> &untypedVocab() {
  static const std::vector<std::string> V = {"a", "b", "c", "d", "e"};
  return V;
}

std::vector<std::string> names(const xsa::Dtd &D) {
  std::vector<std::string> V;
  for (xsa::Symbol S : D.elements())
    V.push_back(xsa::symbolName(S));
  return V;
}

/// Elements that occur in some valid document: productive (they have a
/// finite valid subtree) and reachable from the root through content
/// models whose other parts are productive too. descendant::L from the
/// root of a valid document is non-empty exactly for these L.
std::vector<std::string> occurringElements(const xsa::Dtd &D) {
  using xsa::ContentModel;
  using xsa::ContentRef;
  std::set<xsa::Symbol> Productive;
  auto CanBuild = [&](auto &Self, const ContentRef &C) -> bool {
    switch (C->K) {
    case ContentModel::Eps:
    case ContentModel::Star:
    case ContentModel::Opt:
      return true;
    case ContentModel::Sym:
      return Productive.count(C->S) > 0;
    case ContentModel::Seq:
      return Self(Self, C->A) && Self(Self, C->B);
    case ContentModel::Choice:
      return Self(Self, C->A) || Self(Self, C->B);
    case ContentModel::Plus:
      return Self(Self, C->A);
    }
    return false;
  };
  for (bool Grew = true; Grew;) {
    Grew = false;
    for (xsa::Symbol S : D.elements())
      if (!Productive.count(S) && CanBuild(CanBuild, D.content(S)))
        Grew = Productive.insert(S).second;
  }
  auto Occurs = [&](auto &Self, const ContentRef &C,
                    std::set<xsa::Symbol> &Out) -> void {
    switch (C->K) {
    case ContentModel::Eps:
      return;
    case ContentModel::Sym:
      if (Productive.count(C->S))
        Out.insert(C->S);
      return;
    case ContentModel::Seq:
      if (CanBuild(CanBuild, C->A) && CanBuild(CanBuild, C->B)) {
        Self(Self, C->A, Out);
        Self(Self, C->B, Out);
      }
      return;
    case ContentModel::Choice:
      Self(Self, C->A, Out);
      Self(Self, C->B, Out);
      return;
    case ContentModel::Star:
    case ContentModel::Plus:
    case ContentModel::Opt:
      Self(Self, C->A, Out);
      return;
    }
  };
  std::set<xsa::Symbol> Reached;
  std::vector<xsa::Symbol> Work;
  if (Productive.count(D.root()))
    Work.push_back(D.root());
  std::set<xsa::Symbol> Expanded;
  while (!Work.empty()) {
    xsa::Symbol S = Work.back();
    Work.pop_back();
    if (!Expanded.insert(S).second || !D.isDeclared(S))
      continue;
    std::set<xsa::Symbol> Out;
    Occurs(Occurs, D.content(S), Out);
    for (xsa::Symbol T : Out) {
      Reached.insert(T);
      Work.push_back(T);
    }
  }
  std::vector<std::string> V;
  for (xsa::Symbol S : D.elements())
    if (Reached.count(S))
      V.push_back(xsa::symbolName(S));
  return V;
}

struct Schema {
  std::string Dtd;
  std::vector<std::string> Vocab;
  std::vector<std::string> Occurring;
};

const Schema &schema(unsigned K) {
  static const Schema S[3] = {
      {"", untypedVocab(), {}},
      {"wikipedia", names(xsa::wikipediaDtd()),
       occurringElements(xsa::wikipediaDtd())},
      {"smil", names(xsa::smil10Dtd()), occurringElements(xsa::smil10Dtd())},
  };
  return S[K];
}

} // namespace

struct ProblemStream::Shape {
  const Schema *S;
  std::string Prefix; ///< minted labels are Prefix + counter
  unsigned Minted = 0;
};

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

ProblemStream::ProblemStream(uint64_t Seed, std::string Tag)
    : Rng{Seed ^ fnv1a(Tag)}, Tag(std::move(Tag)) {}

std::string ProblemStream::label(Shape &S) {
  unsigned R = below(100);
  if (R < 60)
    return S.S->Vocab[below(static_cast<unsigned>(S.S->Vocab.size()))];
  if (R < 85)
    return S.Prefix + std::to_string(S.Minted++);
  return "*";
}

std::string ProblemStream::step(Shape &S, bool First) {
  // following:: and preceding:: are left to paper-table2: one such step
  // can make a small problem cost a hundred times the median.
  unsigned R = below(100);
  std::string L = label(S);
  if (R < 38)
    return L;
  if (R < 62)
    return "descendant::" + L;
  if (R < 75)
    return "following-sibling::" + L;
  if (R < 85)
    return "preceding-sibling::" + L;
  if (R < 93)
    return "ancestor::" + L;
  // A labelled parent step after another step could contradict the
  // previous step's label; from the (unconstrained) start it cannot.
  return First ? "parent::" + L : "parent::*";
}

std::string ProblemStream::qualifier(Shape &S, bool Positive) {
  static const char *const Axes[] = {"", "descendant::",
                                     "following-sibling::",
                                     "preceding-sibling::"};
  auto Rel = [&] { return Axes[below(4)] + label(S); };
  std::string Q = Rel();
  if (!Positive && chance(30))
    Q = "not(" + Q + ")";
  if (chance(5))
    Q += (chance(50) ? " and " : " or ") + Rel();
  return Q;
}

std::string ProblemStream::path(Shape &S, bool Positive) {
  unsigned Steps = 1 + below(2);
  std::string P;
  for (unsigned I = 0; I < Steps; ++I) {
    if (I)
      P += "/";
    P += step(S, I == 0);
    // Qualifiers under a schema make problems several times costlier.
    if (chance(S.S->Dtd.empty() ? 25 : 8))
      P += "[" + qualifier(S, Positive) + "]";
  }
  return P;
}

Problem ProblemStream::next() {
  ++Serial;
  // 55% untyped, 35% under wikipedia (9 elements) and 10% under smil
  // (19 elements), whose problems cost several times more.
  unsigned Schemas = below(20);
  Shape S{&schema(Schemas < 11 ? 0 : Schemas < 18 ? 1 : 2),
          Tag + std::to_string(Serial) + "n"};
  bool Typed = !S.S->Dtd.empty();
  unsigned VocabSize = static_cast<unsigned>(S.S->Vocab.size());
  // A name minted for this problem alone and used nowhere else in it:
  // the constructions below rely on it differing from every other label.
  std::string M = Tag + std::to_string(Serial) + "m";
  static const char *const MAxes[] = {"", "descendant::",
                                      "following-sibling::"};
  std::string MQ = std::string(MAxes[below(3)]) + M;

  Problem P;
  P.Dtd = S.S->Dtd;
  P.Renamable = !Typed;
  // Containment and equivalence under a schema cost 5-20 times an
  // untyped problem, with a long tail; kept rare (wikipedia only) so
  // that a run's total work does not hang on a few of them.
  static const unsigned TypedKinds[] = {4, 5, 10, 4, 5, 10, 0};
  unsigned Kind = !Typed            ? below(10)
                  : S.S->Dtd == "smil" ? TypedKinds[below(6)]
                                      : TypedKinds[below(7)];
  // Kinds 0-5 hold or fail whatever e selects, so they are valid under
  // any schema. Kinds 6-9 need e to be satisfiable: untyped, with only
  // positive qualifiers and no label clashes, every such path is.
  bool Positive = Kind >= 6 || chance(60);
  std::string E = path(S, Positive);
  switch (Kind) {
  case 0: // e[q] ⊆ e
    P.Op = "contains", P.E1 = E + "[" + MQ + "]", P.E2 = E, P.Holds = true;
    break;
  case 1: // e/x ⊆ e//x
    P.Op = "contains", P.E1 = E + "/" + M, P.E2 = E + "//" + M;
    P.Holds = true;
    break;
  case 2: // e ⊆ e | f
    P.Op = "contains", P.E1 = E;
    P.E2 = E + " | " + MQ + "/" + step(S, false);
    P.Holds = true;
    break;
  case 3: { // e[q][r] ≡ e[r][q]
    std::string Q = qualifier(S, Positive);
    P.Op = "equiv", P.E1 = E + "[" + MQ + "][" + Q + "]";
    P.E2 = E + "[" + Q + "][" + MQ + "]", P.Holds = true;
    break;
  }
  case 4: { // e/self::A/self::M is empty (A ≠ M)
    const std::string &A = S.S->Vocab[below(VocabSize)];
    P.Op = "empty", P.E1 = E + "/self::" + A + "/self::" + M, P.Holds = true;
    break;
  }
  case 5: { // e/self::A and e/self::M never overlap
    const std::string &A = S.S->Vocab[below(VocabSize)];
    P.Op = "overlap", P.E1 = E + "/self::" + A, P.E2 = E + "/self::" + M;
    P.Holds = false;
    break;
  }
  case 6: // e ⊄ e[q]: a minimal model of e has no M node
    P.Op = "contains", P.E1 = E, P.E2 = E + "[" + MQ + "]", P.Holds = false;
    break;
  case 7: // e[q] and e overlap: e[q] is satisfiable
    // e[q] goes first: xsolved marks the witness's target among the
    // nodes the first query selects, without consulting the second.
    P.Op = "overlap", P.E1 = E + "[" + MQ + "]", P.E2 = E, P.Holds = true;
    break;
  case 8: // e/M is satisfiable, so not empty
    P.Op = "empty", P.E1 = E + "/" + M, P.Holds = false;
    break;
  case 9: // e ≢ e[q]
    P.Op = "equiv", P.E1 = E, P.E2 = E + "[" + MQ + "]", P.Holds = false;
    break;
  default: { // an element that occurs in some valid document
    const auto &Occ = S.S->Occurring;
    P.Op = "empty";
    P.E1 = "descendant::" + Occ[below(static_cast<unsigned>(Occ.size()))] +
           "[not(" + M + ")]";
    P.Holds = false;
    break;
  }
  }
  return P;
}

Problem perfbench::renamed(const Problem &P, const std::string &Suffix) {
  auto Rename = [&](const std::string &X) {
    std::string Out;
    for (size_t I = 0; I < X.size();) {
      unsigned char C = static_cast<unsigned char>(X[I]);
      if (!std::isalpha(C) && C != '_') {
        Out += X[I++];
        continue;
      }
      size_t J = I;
      while (J < X.size() && (std::isalnum(static_cast<unsigned char>(X[J])) ||
                              X[J] == '_' || X[J] == '-' || X[J] == '.'))
        ++J;
      std::string Word = X.substr(I, J - I);
      size_t K = J;
      while (K < X.size() && X[K] == ' ')
        ++K;
      bool Keyword = Word == "and" || Word == "or" ||
                     (K < X.size() && (X[K] == ':' || X[K] == '('));
      Out += Keyword ? Word : Word + "_" + Suffix;
      I = J;
    }
    return Out;
  };
  Problem R = P;
  R.E1 = Rename(P.E1);
  if (!P.E2.empty())
    R.E2 = Rename(P.E2);
  for (std::string &O : R.Others)
    O = Rename(O);
  return R;
}

ZipfTable::ZipfTable(size_t N) {
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Cdf.push_back(Sum += 1.0 / static_cast<double>(I + 1));
  for (double &C : Cdf)
    C /= Sum;
}

size_t ZipfTable::draw(double U) const {
  size_t I = static_cast<size_t>(
      std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return std::min(I, Cdf.size() - 1);
}
