//===- core/GroundTerm.cpp - Annotated ground terms -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/GroundTerm.h"

#include <sstream>

using namespace rasc;

GroundTerm rasc::appendAnn(const AnnotationDomain &D, GroundTerm T,
                           AnnId W) {
  T.Ann = D.compose(W, T.Ann);
  for (GroundTerm &Kid : T.Kids)
    Kid = appendAnn(D, std::move(Kid), W);
  return T;
}

bool rasc::sameSkeleton(const GroundTerm &A, const GroundTerm &B) {
  if (A.C != B.C || A.Kids.size() != B.Kids.size())
    return false;
  for (size_t I = 0; I != A.Kids.size(); ++I)
    if (!sameSkeleton(A.Kids[I], B.Kids[I]))
      return false;
  return true;
}

std::string rasc::toString(const ConstraintSystem &CS, const GroundTerm &T) {
  std::ostringstream OS;
  OS << CS.constructorName(T.C) << "^" << CS.domain().toString(T.Ann);
  if (!T.Kids.empty()) {
    OS << "(";
    for (size_t I = 0; I != T.Kids.size(); ++I) {
      if (I)
        OS << ", ";
      OS << toString(CS, T.Kids[I]);
    }
    OS << ")";
  }
  return OS.str();
}
