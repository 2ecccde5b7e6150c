//===- pdmc/Properties.cpp - Security properties from the paper -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Properties.h"

#include <cassert>
#include <string_view>

using namespace rasc;

std::string rasc::simplePrivilegeSpecText() {
  return R"(# Figure 3: Unix process privilege (simple model).
# Self-loops follow Figure 4's representative functions: irrelevant
# operations keep the state, Error absorbs.
start state Unpriv :
  | seteuid_zero -> Priv
  | seteuid_nonzero -> Unpriv
  | execl -> Unpriv;

state Priv :
  | seteuid_zero -> Priv
  | seteuid_nonzero -> Unpriv
  | execl -> Error;

accept state Error :
  | seteuid_zero -> Error
  | seteuid_nonzero -> Error
  | execl -> Error;
)";
}

namespace {

/// Abstract (effective, real, saved) uid triple; false = root.
struct Uids {
  bool E, R, S;
};

/// The uid-changing symbols of the full privilege model, in alphabet
/// order (execl, the ninth symbol, changes no uid).
enum UidSym {
  SetuidZero,
  SetuidUser,
  SeteuidZero,
  SeteuidUser,
  SetreuidUser,
  SetresuidUser,
  DropPriv,
  Fork,
  NumUidSyms
};
constexpr std::string_view UidSymNames[NumUidSyms] = {
    "setuid_zero",   "setuid_user",    "seteuid_zero", "seteuid_user",
    "setreuid_user", "setresuid_user", "drop_priv",    "fork"};

/// One abstract transition of the full privilege model.
Uids stepUids(Uids U, UidSym Sym) {
  bool Privileged = !U.E;
  switch (Sym) {
  case SetuidZero:
    if (Privileged)
      return {false, false, false};
    if (!U.R || !U.S)
      return {false, U.R, U.S};
    return U;
  case SetuidUser:
    if (Privileged)
      return {true, true, true}; // permanent drop
    return {true, U.R, U.S};
  case SeteuidZero:
    if (!U.R || !U.S || Privileged)
      return {false, U.R, U.S};
    return U;
  case SeteuidUser:
    return {true, U.R, U.S}; // temporary drop, saved uid kept
  case SetreuidUser:
    if (Privileged)
      return {true, true, U.S};
    return {true, true, U.S && U.R};
  case SetresuidUser:
  case DropPriv:
    return {true, true, true};
  case Fork:
  case NumUidSyms:
    break;
  }
  return U;
}

/// "S" and the triple's bits: "S101".
std::string_view uidStateName(Uids U, char (&Buf)[4]) {
  Buf[0] = 'S';
  Buf[1] = U.E ? '1' : '0';
  Buf[2] = U.R ? '1' : '0';
  Buf[3] = U.S ? '1' : '0';
  return {Buf, 4};
}

} // namespace

std::string rasc::fullPrivilegeSpecText() {
  // Generated from the abstract uid semantics so the transition table
  // stays consistent; 11 states (Init, 8 uid triples, ExecSafe,
  // Error), 9 symbols.
  std::string Out;
  Out.reserve(2800);
  Out += "# Full process-privilege model (reconstruction of MOPS "
         "Property 1):\n"
         "# a process must not exec while its effective uid is root.\n"
         "# States track the abstract (effective, real, saved) uid "
         "triple.\n";

  auto emitState = [&](std::string_view Name, bool Start, bool Accept,
                       Uids U, bool IsTerminal) {
    if (Start)
      Out += "start ";
    if (Accept)
      Out += "accept ";
    Out += "state ";
    Out += Name;
    Out += " :\n";
    char Buf[4];
    for (int Sym = 0; Sym != NumUidSyms; ++Sym) {
      Out += "  | ";
      Out += UidSymNames[Sym];
      Out += " -> ";
      Out += IsTerminal ? Name
                        : uidStateName(stepUids(U, UidSym(Sym)), Buf);
      Out += "\n";
    }
    Out += "  | execl -> ";
    Out += IsTerminal ? Name : !U.E ? "Error" : "ExecSafe";
    Out += ";\n\n";
  };

  // Init behaves like a root daemon start: (root, root, root).
  emitState("Init", /*Start=*/true, /*Accept=*/false,
            {false, false, false}, /*IsTerminal=*/false);
  for (int Bits = 0; Bits != 8; ++Bits) {
    Uids U{(Bits & 4) != 0, (Bits & 2) != 0, (Bits & 1) != 0};
    char Buf[4];
    emitState(uidStateName(U, Buf), false, false, U, false);
  }
  emitState("ExecSafe", false, false, {true, true, true},
            /*IsTerminal=*/true);
  emitState("Error", false, /*Accept=*/true, {false, false, false},
            /*IsTerminal=*/true);
  return Out;
}

std::string rasc::fileStateSpecText() {
  return R"(# Figure 5: file-descriptor state with a parametric handle.
# The accepting Error state marks misuse (double open, stray close);
# the checkers report transitions into accepting states.
start state Closed :
  | open(x) -> Opened
  | close(x) -> Error;

state Opened :
  | close(x) -> Closed
  | open(x) -> Error;

accept state Error :
  | open(x) -> Error
  | close(x) -> Error;
)";
}

namespace {

SpecAutomaton compileOrDie(const std::string &Text) {
  std::string Err;
  std::optional<SpecAutomaton> A = parseSpec(Text, &Err);
  assert(A && "built-in property failed to parse");
  if (!A)
    __builtin_trap();
  return std::move(*A);
}

} // namespace

SpecAutomaton rasc::simplePrivilegeSpec() {
  return compileOrDie(simplePrivilegeSpecText());
}

SpecAutomaton rasc::fullPrivilegeSpec() {
  return compileOrDie(fullPrivilegeSpecText());
}

SpecAutomaton rasc::fileStateSpec() {
  return compileOrDie(fileStateSpecText());
}
