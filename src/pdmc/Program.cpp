//===- pdmc/Program.cpp - CFG program representation ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Program.h"

#include <sstream>

using namespace rasc;

FuncId Program::addFunction(std::string Name) {
  FuncId F = static_cast<FuncId>(Funcs.size());
  Funcs.push_back({std::move(Name), 0, 0});
  Funcs[F].Entry = addNop(F, SourceTag{SourceTag::Entry});
  Funcs[F].Exit = addNop(F, SourceTag{SourceTag::Exit});
  return F;
}

OpSymId Program::internSymbol(std::string_view Name) {
  for (OpSymId I = 0, E = numSymbols(); I != E; ++I)
    if (Symbols[I] == Name)
      return I;
  Symbols.emplace_back(Name);
  return numSymbols() - 1;
}

SourceTag Program::textTag(std::string_view Note) {
  if (Note.empty())
    return {};
  Notes.emplace_back(Note);
  return {SourceTag::Text, static_cast<uint32_t>(Notes.size() - 1)};
}

StmtId Program::addStmt(FuncId F, Stmt St) {
  assert(F < Funcs.size() && "function out of range");
  St.Parent = F;
  Stmts.push_back(std::move(St));
  return static_cast<StmtId>(Stmts.size() - 1);
}

StmtId Program::addNop(FuncId F, std::string_view Note) {
  return addNop(F, textTag(Note));
}

StmtId Program::addNop(FuncId F, SourceTag Tag) {
  Stmt St;
  St.Tag = Tag;
  return addStmt(F, std::move(St));
}

StmtId Program::addOp(FuncId F, std::string_view Symbol,
                      std::vector<std::string> Labels,
                      std::string_view Note) {
  StmtId S = addOp(F, internSymbol(Symbol), textTag(Note));
  Stmts[S].OpLabels = std::move(Labels);
  return S;
}

StmtId Program::addOp(FuncId F, OpSymId Sym, SourceTag Tag) {
  assert(Sym < Symbols.size() && "symbol out of range");
  Stmt St;
  St.Kind = Stmt::Op;
  St.OpSym = Sym;
  St.Tag = Tag;
  return addStmt(F, std::move(St));
}

StmtId Program::addCall(FuncId F, FuncId Callee, std::string_view Note) {
  assert(Callee < Funcs.size() && "callee out of range");
  Stmt St;
  St.Kind = Stmt::Call;
  St.Callee = Callee;
  St.Tag = textTag(Note);
  return addStmt(F, std::move(St));
}

void Program::finalize() {
  for (StmtId S = 0; S != Stmts.size(); ++S) {
    if (!Stmts[S].Succs.empty())
      continue;
    FuncId F = Stmts[S].Parent;
    if (S == Funcs[F].Exit)
      continue;
    Stmts[S].Succs.push_back(Funcs[F].Exit);
  }
}

std::string Program::note(StmtId S) const {
  const SourceTag &T = stmt(S).Tag;
  switch (T.Kind) {
  case SourceTag::None:
    return "";
  case SourceTag::Text:
    return Notes[T.Index];
  case SourceTag::Entry:
    return "entry";
  case SourceTag::Exit:
    return "exit";
  case SourceTag::Block:
    return "b" + std::to_string(T.Index);
  case SourceTag::Insn: {
    std::string N = "insn " + std::to_string(T.Index);
    if (InsnText)
      N += ": " + InsnText(T.Index);
    return N;
  }
  }
  return "";
}

std::string Program::describe(StmtId S) const {
  const Stmt &St = stmt(S);
  std::ostringstream OS;
  OS << funcName(St.Parent) << ":" << S << " ";
  switch (St.Kind) {
  case Stmt::Nop: {
    std::string Note = note(S);
    OS << (Note.empty() ? "nop" : Note);
    break;
  }
  case Stmt::Op:
    OS << symbolName(St.OpSym);
    if (!St.OpLabels.empty()) {
      OS << "(";
      for (size_t I = 0; I != St.OpLabels.size(); ++I) {
        if (I)
          OS << ", ";
        OS << St.OpLabels[I];
      }
      OS << ")";
    }
    break;
  case Stmt::Call:
    OS << "call " << funcName(St.Callee);
    break;
  }
  return OS.str();
}
