//===- analysis_test.cpp - Decision problems of §8 ------------------------===//
//
// Tests the analyzer API: emptiness, containment, overlap, coverage,
// equivalence and static type checking, with and without type
// constraints, including rows of the paper's Table 2 (small ones; the
// XHTML rows run in the benchmark harness).
//
//===----------------------------------------------------------------------===//

#include "analysis/Problems.h"

#include "tree/Xml.h"
#include "xpath/Eval.h"
#include "xpath/Compile.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Compile.h"
#include "xtype/Validate.h"

#include <gtest/gtest.h>

using namespace xsa;

namespace {

ExprRef xp(const std::string &S) {
  std::string Err;
  ExprRef E = parseXPath(S, Err);
  EXPECT_NE(E, nullptr) << Err << " in: " << S;
  return E;
}

class AnalysisTest : public ::testing::Test {
protected:
  FormulaFactory FF;
  Analyzer An{FF};
  Formula True() { return FF.trueF(); }
};

TEST_F(AnalysisTest, Emptiness) {
  EXPECT_TRUE(An.emptiness(xp("self::a & self::b"), True()).Holds);
  AnalysisResult R = An.emptiness(xp("a/b"), True());
  EXPECT_FALSE(R.Holds);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(evalXPath(*R.Tree, xp("a/b")).empty());
}

TEST_F(AnalysisTest, EmptinessUnderType) {
  // Under the Wikipedia DTD, the root's title children never exist
  // (title only occurs under meta). Note the paper's absolute paths
  // navigate *to* the root element, so queries are phrased /self::...
  Formula Wiki = compileDtd(FF, wikipediaDtd());
  EXPECT_TRUE(An.emptiness(xp("/self::article/title"), Wiki).Holds);
  EXPECT_FALSE(An.emptiness(xp("/self::article/meta/title"), Wiki).Holds);
  // redirect may appear under article or under edit.
  EXPECT_FALSE(An.emptiness(xp("/self::article/redirect"), Wiki).Holds);
  EXPECT_FALSE(An.emptiness(xp("//history/edit/redirect"), Wiki).Holds);
  EXPECT_TRUE(An.emptiness(xp("//title/status"), Wiki).Holds);
}

TEST_F(AnalysisTest, ContainmentBasics) {
  EXPECT_TRUE(An.containment(xp("a[b]"), True(), xp("a"), True()).Holds);
  EXPECT_FALSE(An.containment(xp("a"), True(), xp("a[b]"), True()).Holds);
  // Miklau-Suciu row 1 of Table 2 (homomorphism incompleteness example):
  // e1 ⊆ e2 and e2 ⊄ e1.
  ExprRef E1 = xp("/a[.//b[c/*//d]/b[c//d]/b[c/d]]");
  ExprRef E2 = xp("/a[.//b[c/*//d]/b[c/d]]");
  EXPECT_TRUE(An.containment(E1, True(), E2, True()).Holds);
  AnalysisResult R = An.containment(E2, True(), E1, True());
  EXPECT_FALSE(R.Holds);
  ASSERT_TRUE(R.Tree.has_value());
  // The counterexample selects through e2 but not e1.
  NodeSet S2 = evalXPath(*R.Tree, E2);
  NodeSet S1 = evalXPath(*R.Tree, E1);
  bool Witness = false;
  for (NodeId N : S2)
    if (!S1.count(N))
      Witness = true;
  EXPECT_TRUE(Witness) << printXml(*R.Tree, R.Target);
}

TEST_F(AnalysisTest, Table2Row2) {
  // e3 = a/b//c/foll-sibling::d/e, e4 = a/b//d[prec-sibling::c]/e:
  // both containments hold (the two are equivalent).
  ExprRef E3 = xp("a/b//c/foll-sibling::d/e");
  ExprRef E4 = xp("a/b//d[prec-sibling::c]/e");
  EXPECT_TRUE(An.containment(E4, True(), E3, True()).Holds);
  EXPECT_TRUE(An.containment(E3, True(), E4, True()).Holds);
  EXPECT_TRUE(An.equivalence(E3, True(), E4, True()).Holds);
}

TEST_F(AnalysisTest, Table2Row3) {
  // e5 = a/c/following::d/e, e6 = a/b[//c]/following::d/e ∩
  // a/d[preceding::c]/e. The paper reports e6 ⊆ e5 and e5 ⊄ e6; under
  // the literal Fig. 21 syntax e6 ⊄ e5 either (e6 only requires a c
  // *descendant* of b — our solver produces a machine-checked
  // counterexample). With e5' = a//c/following::d/e the paper's verdicts
  // hold exactly, so Fig. 21 presumably abbreviates a//c. We assert the
  // machine-checked facts for both readings (see EXPERIMENTS.md).
  ExprRef E5 = xp("a/c/following::d/e");
  ExprRef E5v = xp("a//c/following::d/e");
  ExprRef E6 = xp("a/b[//c]/following::d/e & a/d[preceding::c]/e");
  EXPECT_FALSE(An.containment(E5, True(), E6, True()).Holds);
  AnalysisResult Literal = An.containment(E6, True(), E5, True());
  EXPECT_FALSE(Literal.Holds);
  ASSERT_TRUE(Literal.Tree.has_value());
  // The counterexample is real: concretely selected by e6, not by e5.
  NodeSet S6 = evalXPath(*Literal.Tree, E6);
  NodeSet S5 = evalXPath(*Literal.Tree, E5);
  bool Diff = false;
  for (NodeId N : S6)
    if (!S5.count(N))
      Diff = true;
  EXPECT_TRUE(Diff);
  // The a//c reading reproduces the paper's row: e6 ⊆ e5' and e5' ⊄ e6.
  EXPECT_TRUE(An.containment(E6, True(), E5v, True()).Holds);
  EXPECT_FALSE(An.containment(E5v, True(), E6, True()).Holds);
}

TEST_F(AnalysisTest, Overlap) {
  AnalysisResult R = An.overlap(xp("a[b]"), True(), xp("a[c]"), True());
  EXPECT_TRUE(R.Holds); // a[b c] witnesses both
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(An.overlap(xp("a"), True(), xp("b"), True()).Holds);
  EXPECT_FALSE(
      An.overlap(xp("a[b]"), True(), xp("a[not(b)]"), True()).Holds);
}

TEST_F(AnalysisTest, Coverage) {
  // * is covered by a ∪ (anything not selected by a): here use labels.
  EXPECT_TRUE(An.coverage(xp("a/b"), True(), {xp("*/b"), xp("c")}, {True()})
                  .Holds);
  EXPECT_FALSE(
      An.coverage(xp("*/b"), True(), {xp("a/b")}, {True()}).Holds);
  EXPECT_TRUE(An.coverage(xp("*[b]"), True(),
                          {xp("*[b and c]"), xp("*[b and not(c)]")},
                          {True(), True()})
                  .Holds);
}

TEST_F(AnalysisTest, OverlapTargetIsSelectedByBothQueries) {
  // The wider query first: the first node e1 selects is the root-most
  // ancestor, which need not have a following c sibling.
  ExprRef E1 = xp("ancestor::*");
  ExprRef E2 = xp("ancestor::*[following-sibling::c]");
  AnalysisResult R = An.overlap(E1, True(), E2, True());
  EXPECT_TRUE(R.Holds);
  ASSERT_TRUE(R.Tree.has_value());
  ASSERT_NE(R.Target, InvalidNodeId) << printXml(*R.Tree);
  EXPECT_TRUE(evalXPath(*R.Tree, E1).count(R.Target))
      << printXml(*R.Tree, R.Target);
  EXPECT_TRUE(evalXPath(*R.Tree, E2).count(R.Target))
      << printXml(*R.Tree, R.Target);
}

TEST_F(AnalysisTest, CoverageTargetIsUncoveredByEveryOther) {
  // The counterexample needs a node two levels down; the first node
  // descendant::* selects (in document order) is then a child, which
  // child::* covers.
  ExprRef E = xp("descendant::*");
  ExprRef Other = xp("child::*");
  AnalysisResult R = An.coverage(E, True(), {Other}, {True()});
  EXPECT_FALSE(R.Holds);
  ASSERT_TRUE(R.Tree.has_value());
  NodeSet Selected = evalXPath(*R.Tree, E);
  NodeSet Covered = evalXPath(*R.Tree, Other);
  ASSERT_FALSE(Selected.empty());
  EXPECT_TRUE(Covered.count(*Selected.begin()))
      << "the first selected node should be covered: "
      << printXml(*R.Tree);
  ASSERT_NE(R.Target, InvalidNodeId) << printXml(*R.Tree);
  EXPECT_TRUE(Selected.count(R.Target)) << printXml(*R.Tree, R.Target);
  EXPECT_FALSE(Covered.count(R.Target)) << printXml(*R.Tree, R.Target);
}

TEST_F(AnalysisTest, StaticTypeCheck) {
  // Nodes selected by /article under the Wikipedia DTD are article
  // trees: type check against the same type holds.
  Formula Wiki = compileDtd(FF, wikipediaDtd());
  EXPECT_TRUE(An.staticTypeCheck(xp("/self::article"), Wiki, Wiki).Holds);
  // But arbitrary selected nodes are not articles.
  EXPECT_FALSE(An.staticTypeCheck(xp("//edit"), Wiki, Wiki).Holds);
}

TEST_F(AnalysisTest, ContainmentUnderTypeDiffersFromUntyped) {
  // Untyped: a/d ⊄ a/*[not(b)] fails only if d can be named b — it
  // cannot; actually a/d ⊆ a/*[not(self::b)]... Use a DTD-driven case:
  // under Wikipedia, //edit/text ⊆ //history//text (edit only occurs
  // under history); untyped this fails.
  Formula Wiki = compileDtd(FF, wikipediaDtd());
  ExprRef E1 = xp("//edit/text");
  ExprRef E2 = xp("//history//text");
  EXPECT_FALSE(An.containment(E1, True(), E2, True()).Holds);
  EXPECT_TRUE(An.containment(E1, Wiki, E2, Wiki).Holds);
}

TEST_F(AnalysisTest, SmilTable2Row4) {
  // e7 = *//switch[ancestor::head]//seq//audio[prec-sibling::video]
  // is satisfiable under SMIL 1.0? The paper reports satisfiable.
  // NOTE: our SMIL transcription allows switch under head with nested
  // containers; verify satisfiability and validate the witness.
  // Anchor the type at the document root so the witness is a complete
  // valid SMIL document (§5.2's root restriction).
  Formula Smil = FF.conj(compileDtd(FF, smil10Dtd()), rootFormula(FF));
  ExprRef E7 = xp("*//switch[ancestor::head]//seq//audio[prec-sibling::video]");
  AnalysisResult R = An.emptiness(E7, Smil);
  EXPECT_FALSE(R.Holds) << "e7 should be satisfiable under SMIL 1.0";
  ASSERT_TRUE(R.Tree.has_value());
  std::string Why;
  EXPECT_TRUE(validate(*R.Tree, smil10Dtd(), &Why))
      << Why << "\n"
      << printXml(*R.Tree);
  EXPECT_FALSE(evalXPath(*R.Tree, E7).empty());
}

TEST_F(AnalysisTest, EquivalenceUnderTypeChange) {
  // §8's "XPath equivalence under type constraints": when the input type
  // evolves from T1 to T2, check that query results are stable. Wikipedia
  // vs Wikipedia with a grown content model.
  Dtd Evolved;
  std::string Err;
  const char *Src = R"(
    <!ELEMENT article (meta, (text | redirect), comment*)>
    <!ELEMENT comment (#PCDATA)>
    <!ELEMENT meta (title, status?, interwiki*, history?)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT interwiki (#PCDATA)>
    <!ELEMENT status (#PCDATA)>
    <!ELEMENT history (edit)+>
    <!ELEMENT edit (status?, interwiki*, (text | redirect)?)>
    <!ELEMENT redirect EMPTY>
    <!ELEMENT text (#PCDATA)>
  )";
  ASSERT_TRUE(parseDtd(Src, Evolved, Err)) << Err;
  Evolved.setRoot("article");
  Formula T1 = compileDtd(FF, wikipediaDtd());
  Formula T2 = compileDtd(FF, Evolved);
  // T1's language is strictly contained in T2's, so old results are
  // preserved in the forward direction...
  EXPECT_TRUE(An.containment(xp("/self::article/meta/title"), T1,
                             xp("/self::article/meta/title"), T2)
                  .Holds);
  // ...but full equivalence fails: T2 admits documents (with comments)
  // on which the T1 side selects nothing.
  EXPECT_FALSE(An.equivalence(xp("/self::article/meta/title"), T1,
                              xp("/self::article/meta/title"), T2)
                   .Holds);
  // Query rewriting under a fixed type: under T2 the wildcard query can
  // be replaced by an explicit union plus the comment-excluding filter —
  // an equivalence that is false without the type constraint.
  ExprRef Wild = xp("/self::article/*");
  ExprRef Explicit = xp("/self::article/meta | /self::article/text | "
                        "/self::article/redirect | /self::article/comment");
  EXPECT_TRUE(An.equivalence(Wild, T2, Explicit, T2).Holds);
  EXPECT_FALSE(An.equivalence(Wild, FF.trueF(), Explicit, FF.trueF()).Holds);
}

} // namespace
