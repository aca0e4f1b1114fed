//===- check.h - Output checks made apart from the solver ---------*- C++ -*-===//
//
// Checks an xsolved response against the expected verdict of its
// problem and re-checks every returned witness or counterexample with
// the concrete XML parser, XPath evaluator and DTD validator — code the
// symbolic solver does not run.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "inputs.h"

#include "service/Json.h"
#include "xpath/Ast.h"

#include <string>
#include <unordered_map>

namespace perfbench {

class Checker {
public:
  /// "" when \p Resp answers \p P correctly, else the reason it does not.
  std::string check(const Problem &P, const xsa::JsonValue &Resp);

private:
  std::string checkModel(const Problem &P, const std::string &Xml);
  xsa::ExprRef xpath(const std::string &Src, std::string &Error);

  std::unordered_map<std::string, xsa::ExprRef> Parsed;
  /// Model check outcomes by (problem, model): recurring traffic returns
  /// the same counterexample many times.
  std::unordered_map<std::string, std::string> ModelOutcomes;
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
