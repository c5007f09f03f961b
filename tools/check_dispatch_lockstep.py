#!/usr/bin/env python3
"""Lockstep check between the OpClass enum and the threaded dispatcher.

The threaded executor (src/sim/dispatch.cc) indexes a computed-goto
handler table by OpClass, so the table must list exactly one `&&op_*`
label per enumerator *in declaration order* -- a reordered or missing
entry silently dispatches the wrong semantics with no compiler
diagnostic beyond the table-size static_assert. This script re-derives
the contract from the sources so CI catches drift at review time:

  1. parses the OpClass enumerators from src/sim/program.hh
     (NumClasses excluded),
  2. parses the `&&op_*` labels out of the dispatcher's handlers[]
     table in declaration order,
  3. checks one-to-one positional correspondence, comparing the
     CamelCase enumerator against the snake_case label with
     underscores stripped (AddAdc <-> op_add_adc, SFence <->
     op_sfence),
  4. checks every table label has a matching `op_<name>:` handler
     definition in dispatch.cc,
  5. checks each piece of execution is written once: every shared
     step (the semantics bodies, prologue, epilogue, serializing paths
     and the issueSlot/dispatchUop/retireInstr scheduler primitives)
     has exactly one Machine:: definition in src/, dispatch.cc defines
     no local copy of a scheduler primitive (issue_slot, dispatch_uop,
     retire_insn), and no file in src/sim/ other than semantics.hh
     (the bodies) switches on opcodes or opcode classes -- program.cc
     may map opcodes to classes, nothing more. tests/test_dispatch.cc
     then diffs the two executors over those shared bodies,
  6. checks the table-size static_assert against kNumOpClasses is
     still present.

Usage:
  check_dispatch_lockstep.py [--repo /path/to/repo]
"""

import argparse
import pathlib
import re
import sys

# Machine members both executors share; each must be defined exactly once.
SHARED_STEPS = (
    "semantics",
    "prologue",
    "epilogue",
    "serialize",
    "issueSlot",
    "dispatchUop",
    "retireInstr",
)

# Names a local copy of a scheduler primitive would take in dispatch.cc.
PRIMITIVE_COPIES = ("issue_slot", "dispatch_uop", "retire_insn")

# A case label of an opcode or opcode-class switch.
OPCODE_CASE = re.compile(r"\bcase\s+(?:x86::)?(Opcode|OpClass)::")


def parse_opclass(program_hh):
    text = program_hh.read_text()
    match = re.search(
        r"enum class OpClass[^{]*\{(.*?)\};", text, re.DOTALL
    )
    if not match:
        sys.exit(f"error: no OpClass enum found in {program_hh}")
    names = []
    for line in match.group(1).splitlines():
        line = re.sub(r"//.*", "", line).strip().rstrip(",")
        if re.fullmatch(r"[A-Za-z_]\w*", line):
            names.append(line)
    if not names or names[-1] != "NumClasses":
        sys.exit(
            "error: OpClass parse failed (expected a trailing "
            "NumClasses sentinel)"
        )
    return names[:-1]


def parse_handler_table(dispatch_cc):
    text = dispatch_cc.read_text()
    match = re.search(
        r"handlers\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL
    )
    if not match:
        sys.exit(f"error: no handlers[] table found in {dispatch_cc}")
    return re.findall(r"&&(op_\w+)", match.group(1)), text


def fold(name):
    """Case/underscore-insensitive spelling: AddAdc == op_add_adc."""
    return name.lower().replace("_", "").removeprefix("op")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent)",
    )
    args = parser.parse_args()
    src = args.repo / "src" / "sim"

    enumerators = parse_opclass(src / "program.hh")
    labels, dispatch_text = parse_handler_table(src / "dispatch.cc")

    failed = False

    def fail(msg):
        nonlocal failed
        failed = True
        print(f"error: {msg}")

    # 3. positional one-to-one correspondence
    if len(labels) != len(enumerators):
        fail(
            f"handlers[] has {len(labels)} entries but OpClass has "
            f"{len(enumerators)} enumerators"
        )
    for i, (enum_name, label) in enumerate(zip(enumerators, labels)):
        if fold(enum_name) != fold(label):
            fail(
                f"handlers[{i}] is &&{label} but OpClass slot {i} is "
                f"{enum_name} (expected op_{enum_name} in snake_case)"
            )

    # 4. every label has a handler definition
    for label in labels:
        if not re.search(rf"^\s*{label}:", dispatch_text, re.MULTILINE):
            fail(f"no '{label}:' handler definition in dispatch.cc")

    # 5. one statement of each shared step, no second opcode switch
    sources = sorted(
        p for p in (args.repo / "src").rglob("*") if p.suffix in (".cc", ".hh")
    )
    texts = {p: p.read_text() for p in sources}
    for step in SHARED_STEPS:
        where = [
            p.relative_to(args.repo)
            for p, text in texts.items()
            for _ in re.finditer(rf"^Machine::{step}\(", text, re.MULTILINE)
        ]
        if len(where) != 1:
            fail(
                f"Machine::{step} must have exactly one definition in src/, "
                f"found {len(where)} ({', '.join(map(str, where)) or 'none'})"
            )
    for copy in PRIMITIVE_COPIES:
        if re.search(rf"\b{copy}\s*=", dispatch_text):
            fail(
                f"dispatch.cc defines a local '{copy}'; call the shared "
                f"Machine member in sim/semantics.hh instead"
            )
    for path in sorted(src.iterdir()):
        if path.name == "semantics.hh" or path.suffix not in (".cc", ".hh"):
            continue
        for match in OPCODE_CASE.finditer(texts[path]):
            if path.name == "program.cc" and match.group(1) == "Opcode":
                continue  # the opcode -> OpClass map
            line = texts[path].count("\n", 0, match.start()) + 1
            fail(
                f"{path.relative_to(args.repo)}:{line}: {match.group(1)} "
                f"switch outside sim/semantics.hh; opcode semantics are "
                f"written once, in Machine::semantics"
            )

    # 6. the compile-time size guard is still in place
    if not re.search(
        r"static_assert\(sizeof\(handlers\)\s*/\s*sizeof\(handlers\[0\]\)"
        r"\s*==\s*\n?\s*kNumOpClasses\)",
        dispatch_text,
    ):
        fail("dispatch.cc lost the handlers[] size static_assert")

    if failed:
        sys.exit("error: dispatch lockstep check failed (see above)")
    print(
        f"dispatch lockstep check passed: {len(enumerators)} OpClass "
        f"handlers in declaration order, "
        f"{len(SHARED_STEPS)} shared steps defined once"
    )


if __name__ == "__main__":
    main()
