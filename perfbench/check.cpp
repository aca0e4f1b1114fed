//===- check.cpp - Output checks made apart from the solver ---------------===//

#include "check.h"

#include "tree/Xml.h"
#include "xpath/Eval.h"
#include "xpath/Parser.h"
#include "xtype/BuiltinDtds.h"
#include "xtype/Validate.h"

#include <cctype>

using namespace perfbench;

namespace {

/// The pre-order index of the element marked xsa:target="true", which is
/// its node id in the Document parseXml builds (nodes are added in
/// document order); InvalidNodeId when no element is marked.
xsa::NodeId markedTarget(const std::string &Xml) {
  xsa::NodeId Index = 0;
  for (size_t I = 0; I + 1 < Xml.size(); ++I) {
    if (Xml[I] != '<' ||
        !(std::isalpha(static_cast<unsigned char>(Xml[I + 1])) ||
          Xml[I + 1] == '_'))
      continue;
    size_t End = Xml.find('>', I);
    if (End == std::string::npos)
      return xsa::InvalidNodeId;
    if (Xml.substr(I, End - I).find("xsa:target=\"true\"") != std::string::npos)
      return Index;
    ++Index;
  }
  return xsa::InvalidNodeId;
}

const xsa::Dtd *builtinDtd(const std::string &Name) {
  if (Name == "wikipedia")
    return &xsa::wikipediaDtd();
  if (Name == "smil")
    return &xsa::smil10Dtd();
  if (Name == "xhtml")
    return &xsa::xhtml10StrictDtd();
  return nullptr;
}

} // namespace

xsa::ExprRef Checker::xpath(const std::string &Src, std::string &Error) {
  auto It = Parsed.find(Src);
  if (It != Parsed.end())
    return It->second;
  xsa::ExprRef E = xsa::parseXPath(Src, Error);
  if (E)
    Parsed.emplace(Src, E);
  return E;
}

std::string Checker::check(const Problem &P, const xsa::JsonValue &Resp) {
  if (!Resp.get("ok")->asBool())
    return "error response: " + Resp.get("error")->dump();
  bool Holds = Resp.get("holds")->asBool();
  if (Holds != P.Holds)
    return std::string("verdict ") + (Holds ? "holds" : "fails") +
           ", expected " + (P.Holds ? "holds" : "fails");
  // Satisfiable underlying formulas come with a witness: a failed
  // containment/equivalence/coverage, a non-empty query, an overlap.
  bool Sat = P.Op == "overlap" ? Holds : !Holds;
  std::string Model = Resp.str("model");
  if (Sat != !Model.empty())
    return Sat ? "no witness for a satisfiable problem"
               : "witness for an unsatisfiable problem";
  if (Model.empty())
    return "";
  std::string Key = P.requestLine("") + '\0' + Model;
  auto It = ModelOutcomes.find(Key);
  if (It != ModelOutcomes.end())
    return It->second;
  std::string Why = checkModel(P, Model);
  ModelOutcomes.emplace(std::move(Key), Why);
  return Why;
}

std::string Checker::checkModel(const Problem &P, const std::string &Xml) {
  xsa::Document Doc;
  std::string Error;
  if (!xsa::parseXml(Xml, Doc, Error))
    return "witness does not parse: " + Error;
  if (Doc.roots().size() != 1)
    return "witness is not a single-rooted document";
  xsa::NodeId Start = Doc.markedNode();
  xsa::NodeId Target = markedTarget(Xml);
  if (Start == xsa::InvalidNodeId || Target == xsa::InvalidNodeId ||
      static_cast<size_t>(Target) >= Doc.size())
    return "witness lacks its start or target mark";
  if (const xsa::Dtd *D = builtinDtd(P.Dtd)) {
    // Typed contexts start at the root of a valid document.
    std::string Why;
    if (!xsa::validate(Doc, *D, &Why))
      return "witness is not valid " + P.Dtd + ": " + Why;
    if (Start != Doc.firstRoot())
      return "typed witness does not start at the root";
  }
  auto Selects = [&](const std::string &Src, bool &Out) {
    xsa::ExprRef E = xpath(Src, Error);
    if (!E)
      return false;
    Out = xsa::evalXPath(Doc, E, Start).count(Target) > 0;
    return true;
  };
  bool In1 = false, In2 = false;
  if (!Selects(P.E1, In1) || (!P.E2.empty() && !Selects(P.E2, In2)))
    return "query does not parse: " + Error;
  bool InOthers = false;
  for (const std::string &O : P.Others) {
    bool In = false;
    if (!Selects(O, In))
      return "query does not parse: " + Error;
    InOthers |= In;
  }
  bool Ok = false;
  if (P.Op == "contains")
    Ok = In1 && !In2; // selected by e1 only
  else if (P.Op == "equiv")
    Ok = In1 != In2; // selected by exactly one side
  else if (P.Op == "overlap")
    Ok = In1 && In2;
  else if (P.Op == "empty")
    Ok = In1;
  else if (P.Op == "cover")
    Ok = In1 && !InOthers;
  return Ok ? "" : "the evaluator does not confirm the witness's target";
}
