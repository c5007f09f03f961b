"""Pure helpers of the end-to-end benchmark (see README.md).

Everything here is deterministic and free of I/O beyond what the
arguments name, so perfbench/test_benchlib.py can test it directly:

- the seeded generator of the ``batch`` workload's spec file;
- the percentile rule for spec timings;
- failure accounting (``ok_frac`` and the contract's ``failed``);
- the byte-identity check of table and profile outputs.
"""

import math
from fractions import Fraction

MASK64 = (1 << 64) - 1

# Held out from tuning: use it only to confirm a claimed gain.
HELD_OUT_SEED = 9973


class SplitMix64:
    """Seeded 64-bit generator with a fixed, version-independent stream
    (Python's own `random` only promises a stable `random()`)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def choice(self, items):
        return items[self.below(len(items))]


# Registers a user snippet may clobber: not RSP, and not R14 (the
# memory-area base) or R15 (the loop counter) that nanoBench owns.
REGS = ["RAX", "RBX", "RCX", "RDX", "RSI", "RDI",
        "R8", "R9", "R10", "R11", "R12", "R13"]
ALU = ["add {a}, {b}", "sub {a}, {b}", "xor {a}, {b}", "and {a}, {b}",
       "or {a}, {b}", "imul {a}, {b}", "shl {a}, 3", "ror {a}, 7",
       "lea {a}, [{b}+{c}]", "inc {a}", "popcnt {a}, {b}", "cmp {a}, {b}"]
# Working sets from L1-resident to beyond Skylake's 256 KiB L2 (the
# R14 area is 1 MiB).
WORKING_SETS = [4096, 16384, 65536, 262144, 1048576]
# (unroll_count, loop_count) shapes with the same 1000 body copies per
# run, so every spec costs about the same and the batch's total work
# does not depend on the seed.
SHAPES = [(1000, 0), (200, 5), (100, 10), (25, 40), (10, 100)]
KINDS = ["alu", "load", "store", "mixed"]
DUPLICATE_EVERY = 5
# RBX walks the working set; the ALU mix never touches it.
WALK = "RBX"


def _alu(rng, n):
    regs = [r for r in REGS if r != WALK]
    lines = []
    for _ in range(n):
        a, b, c = (rng.choice(regs) for _ in range(3))
        lines.append(rng.choice(ALU).format(a=a, b=b, c=c))
    return lines


def _walk(rng, kind, ws):
    """A strided load or store walk over a power-of-two working set."""
    stride = rng.choice([8, 64])
    reg = rng.choice([r for r in REGS if r != WALK])
    access = (f"mov {reg}, [R14+{WALK}]" if kind == "load"
              else f"mov [R14+{WALK}], {reg}")
    return [access, f"add {WALK}, {stride}", f"and {WALK}, {ws - 1}"]


def _spec_line(rng, i):
    """Unique spec @i: kind, shape, working set and body length cycle
    through balanced strata; the seed picks registers, ALU operations,
    strides and (by shuffling) the order."""
    kind = KINDS[i % len(KINDS)]
    unroll, loop = SHAPES[(i // len(KINDS)) % len(SHAPES)]
    ws = WORKING_SETS[(i // (len(KINDS) * len(SHAPES))) % len(WORKING_SETS)]
    extra = (i // (len(KINDS) * len(SHAPES) * len(WORKING_SETS))) % 3
    if kind == "alu":
        body = _alu(rng, 3 + extra)
    elif kind == "mixed":
        body = (_walk(rng, "load", ws) + _walk(rng, "store", ws)[:1]
                + _alu(rng, extra))
    else:
        body = _walk(rng, kind, ws) + _alu(rng, extra)
    return (f'-asm "{"; ".join(body)}" -asm_init "mov {WALK}, 0"'
            f" -unroll_count {unroll} -loop_count {loop}")


def generate_batch(seed, count):
    """The ``batch`` workload's spec file: @count lines in seeded order,
    every DUPLICATE_EVERY-th of them a repeat of a seeded earlier line."""
    rng = SplitMix64(seed)
    unique = [_spec_line(rng, i)
              for i in range(count - count // DUPLICATE_EVERY)]
    for i in range(len(unique) - 1, 0, -1):
        j = rng.below(i + 1)
        unique[i], unique[j] = unique[j], unique[i]
    lines = []
    for n in range(count):
        if n % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
            lines.append(rng.choice(lines))
        else:
            lines.append(unique.pop())
    return "".join(line + "\n" for line in lines)


# The batch workload's counter configuration: one round of the
# programmable counters, so the cache model's hits and misses count.
BATCH_CONFIG = """\
0E.01 UOPS_ISSUED.ANY
D1.01 MEM_LOAD_RETIRED.L1_HIT
D1.08 MEM_LOAD_RETIRED.L1_MISS
D1.10 MEM_LOAD_RETIRED.L2_MISS
"""

PERCENTILES = (50, 90, 99, 99.9)


def _rank(p, n):
    """1-based nearest rank of percentile @p among @n samples (exact:
    99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def reportable_percentile(n, candidates=PERCENTILES):
    """The highest percentile with at least ten samples beyond it, or
    None when even the median has fewer."""
    best = None
    for p in candidates:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def account(reps):
    """Failure accounting over repetitions. Each rep is a dict with
    ``submitted``, ``failed_outcomes`` and ``check_ok``. A spec fails
    when its outcome is an error; a failed output check fails every
    spec of that rep. Returns (attempted, failed, ok_frac): ``failed``
    counts specs of reps whose check failed (the contract's operations
    that went wrong), and ``ok_frac`` is 1 - failed_frac with
    failed_frac = failed outcomes / specs submitted."""
    attempted = sum(r["submitted"] for r in reps)
    failed = sum(r["submitted"] for r in reps if not r["check_ok"])
    ok = sum(r["submitted"] - r["failed_outcomes"]
             for r in reps if r["check_ok"])
    return attempted, failed, (ok / attempted if attempted else 0.0)


def check_identical(produced, golden):
    """None if the bytes match, else where they first differ."""
    if produced == golden:
        return None
    at = next((i for i, (a, b) in enumerate(zip(produced, golden))
               if a != b), min(len(produced), len(golden)))
    return (f"differs from the reference at byte {at} "
            f"({len(produced)} vs {len(golden)} bytes)")
