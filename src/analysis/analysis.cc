/**
 * @file
 * Spec static analyzer: dataflow over the predecoded program IR.
 *
 * The dataflow core tracks, per architectural register, the set of
 * *segment-entry* registers the current value derives from (a bitmask
 * over the 34-register file, RFLAGS included). One linear pass over
 * init then body evaluates every rule except the chain rule; R3 runs
 * two extra body-only passes (zero idioms honored / treated as plain
 * reads) and looks for a cycle in the written-register dependency
 * relation -- a cycle is exactly a loop-carried chain across unroll
 * copies. Control flow inside the body is ignored (straight-line
 * over-approximation): branches contribute their register and flags
 * reads but do not fork the state, which keeps the pass linear and is
 * precise for every spec the planners emit.
 */

#include "analysis/analysis.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "analysis/bound.hh"

#include "common/logging.hh"
#include "core/json.hh"
#include "core/result.hh"
#include "sim/program.hh"
#include "uarch/timing.hh"
#include "x86/assembler.hh"

namespace nb::analysis
{

using x86::Instruction;
using x86::Opcode;
using x86::Reg;

namespace
{

constexpr std::size_t kNumRegs =
    static_cast<std::size_t>(Reg::NumRegs);
static_assert(kNumRegs <= 64, "register deps are a uint64_t bitmask");

using Mask = std::uint64_t;

constexpr std::size_t
regIdx(Reg r)
{
    return static_cast<std::size_t>(r);
}

constexpr Mask
regBit(Reg r)
{
    return Mask{1} << regIdx(r);
}

/** One-operand IMUL reads RAX implicitly (RDX:RAX = RAX * src). The
 *  opcode table leaves that implicit so the executor's readiness
 *  timing stays as measured; the analyzer adds it back here. */
bool
isOneOpImul(const Instruction &insn)
{
    return insn.opcode == Opcode::IMUL && insn.operands.size() == 1;
}

/** Register-derivation state: deps[r] = segment-entry registers the
 *  current value of r derives from; written = registers defined so
 *  far (RFLAGS included). */
struct Flow
{
    std::array<Mask, kNumRegs> deps{};
    Mask written = 0;

    void
    reset()
    {
        for (std::size_t r = 0; r < kNumRegs; ++r)
            deps[r] = Mask{1} << r;
        written = 0;
    }
};

/** The registers an entry reads (dataflow inputs): explicit sources,
 *  flags, the IMUL implicit, and -- for loads and LEA -- the address
 *  registers (a chase's loaded value is data-dependent on the
 *  address). */
Mask
inputDeps(const Flow &f, const sim::Program &prog,
          const sim::DecodedInsn &d, bool idiom_reads)
{
    const Instruction &insn = prog.insn(d);
    Mask in = 0;
    const Reg *srcs = prog.srcRegs(d);
    for (std::uint16_t i = 0; i < d.srcCount; ++i)
        in |= f.deps[regIdx(srcs[i])];
    if (d.zeroIdiom && idiom_reads) {
        for (const auto &op : insn.operands) {
            if (op.kind == x86::OperandKind::Register)
                in |= f.deps[regIdx(op.reg)];
        }
    }
    if (d.readsFlags)
        in |= f.deps[regIdx(Reg::RFLAGS)];
    if (isOneOpImul(insn))
        in |= f.deps[regIdx(Reg::RAX)];
    if (d.hasLoad || insn.opcode == Opcode::LEA) {
        const Reg *addrs = prog.addrRegs(d);
        for (std::uint16_t i = 0; i < d.addrCount; ++i)
            in |= f.deps[regIdx(addrs[i])];
    }
    return in;
}

/** Advance the dataflow state across one entry. */
void
step(Flow &f, const sim::Program &prog, const sim::DecodedInsn &d,
     bool idiom_reads)
{
    Mask in = inputDeps(f, prog, d, idiom_reads);
    const Reg *dsts = prog.dstRegs(d);
    for (std::uint16_t i = 0; i < d.dstCount; ++i) {
        f.deps[regIdx(dsts[i])] = in;
        f.written |= regBit(dsts[i]);
    }
    if (d.writesFlags) {
        f.deps[regIdx(Reg::RFLAGS)] = in;
        f.written |= regBit(Reg::RFLAGS);
    }
}

/** Registers an entry uses, as a mask (for the dead-code scan; flags
 *  are tracked separately via readsFlags). */
Mask
useMask(const sim::Program &prog, const sim::DecodedInsn &d)
{
    const Instruction &insn = prog.insn(d);
    Mask m = 0;
    const Reg *srcs = prog.srcRegs(d);
    for (std::uint16_t i = 0; i < d.srcCount; ++i)
        m |= regBit(srcs[i]);
    if (d.zeroIdiom) {
        // A zero idiom's operand value is irrelevant -- but the
        // register itself is *consumed* in the sense that a prior
        // write to it is intentional dependency-breaking fodder, not
        // dead code. It is deliberately NOT added here: `mov RAX, 5;
        // xor RAX, RAX` does leave the 5 unread.
    }
    const Reg *addrs = prog.addrRegs(d);
    for (std::uint16_t i = 0; i < d.addrCount; ++i)
        m |= regBit(addrs[i]);
    if (isOneOpImul(insn))
        m |= regBit(Reg::RAX);
    return m;
}

Mask
defMask(const sim::Program &prog, const sim::DecodedInsn &d)
{
    Mask m = 0;
    const Reg *dsts = prog.dstRegs(d);
    for (std::uint16_t i = 0; i < d.dstCount; ++i)
        m |= regBit(dsts[i]);
    return m;
}

/** Width in bits with which @p d writes register @p r (64 for
 *  implicit destinations). A write of < 32 bits merges with the old
 *  value instead of replacing it, so it does not kill a pending def. */
unsigned
defWidth(const sim::Program &prog, const sim::DecodedInsn &d, Reg r)
{
    const Instruction &insn = prog.insn(d);
    if (!insn.operands.empty() &&
        insn.operands[0].kind == x86::OperandKind::Register &&
        insn.operands[0].reg == r)
        return insn.operands[0].widthBits;
    return 64;
}

/**
 * Is there a loop-carried dependency chain across body iterations?
 * After one straight-line pass, register s written by the body holds a
 * value derived from the *entry* values after[s]; an entry value of a
 * written register r is r's previous-iteration result. A cycle in
 * that relation (transitive closure over the written registers,
 * RFLAGS included -- the SETcc/TEST chain is a flags cycle) is a
 * chain that threads the body back to itself.
 */
bool
chainExists(const sim::Program &body, bool idiom_reads)
{
    if (body.entryCount() == 0)
        return false;
    Flow f;
    f.reset();
    for (std::size_t i = 0; i < body.entryCount(); ++i)
        step(f, body, body.entry(i), idiom_reads);

    std::array<Mask, kNumRegs> reach{};
    for (std::size_t r = 0; r < kNumRegs; ++r)
        reach[r] = f.deps[r] & f.written;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t s = 0; s < kNumRegs; ++s) {
            if (!(f.written >> s & 1))
                continue;
            Mask add = 0;
            for (std::size_t r = 0; r < kNumRegs; ++r) {
                if (reach[s] >> r & 1)
                    add |= reach[r];
            }
            if ((reach[s] | add) != reach[s]) {
                reach[s] |= add;
                changed = true;
            }
        }
    }
    for (std::size_t s = 0; s < kNumRegs; ++s) {
        if ((f.written >> s & 1) && (reach[s] >> s & 1))
            return true;
    }
    return false;
}

/** Does this opcode read only CF of the flags (ADC/SBB and the
 *  carry-conditional operations)? Every other flags reader in the
 *  subset consumes ZF/SF/OF. */
bool
readsOnlyCarry(Opcode op)
{
    return op == Opcode::ADC || op == Opcode::SBB ||
           op == Opcode::CMOVC || op == Opcode::CMOVNC ||
           op == Opcode::JC || op == Opcode::JNC;
}

/** Does this opcode leave CF = 0 unconditionally (the logic group,
 *  which clears CF and OF)? The counter readout's OR accumulation has
 *  the same guarantee, so CF = 0 established in init *does* survive
 *  the readout. */
bool
clearsCarry(Opcode op)
{
    return op == Opcode::TEST || op == Opcode::AND ||
           op == Opcode::OR || op == Opcode::XOR;
}

/** InstrClasses whose register results are side effects of the
 *  measured behaviour, not candidates for the dead-code rule. */
bool
deadRuleExemptClass(x86::InstrClass cls)
{
    using IC = x86::InstrClass;
    return cls == IC::Fence || cls == IC::Serialize ||
           cls == IC::CounterRead || cls == IC::System ||
           cls == IC::Nop || cls == IC::Magic;
}

/** Compact display rendering of a double for diagnostics. */
std::string
shortDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

void
addDiag(Report &rep, const char *rule, Severity sev, Segment seg,
        std::int32_t index, std::string insn, std::string message)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.segment = seg;
    d.index = index;
    d.insn = std::move(insn);
    d.message = std::move(message);
    rep.diagnostics.push_back(std::move(d));
}

} // namespace

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

std::optional<Severity>
severityFromName(std::string_view name)
{
    for (Severity s :
         {Severity::Info, Severity::Warning, Severity::Error}) {
        if (name == severityName(s))
            return s;
    }
    return std::nullopt;
}

const char *
segmentName(Segment segment)
{
    return segment == Segment::Init ? "init" : "body";
}

std::string
Diagnostic::format() const
{
    std::string out = severityName(severity);
    out += ' ';
    out += rule;
    out += ' ';
    out += segmentName(segment);
    if (index >= 0) {
        out += '[';
        out += std::to_string(index);
        out += ']';
    }
    if (!insn.empty()) {
        out += " \"";
        out += insn;
        out += '"';
    }
    out += ": ";
    out += message;
    return out;
}

std::size_t
Report::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == severity ? 1 : 0;
    return n;
}

std::size_t
Report::countAtLeast(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        n += static_cast<int>(d.severity) >=
                     static_cast<int>(severity)
                 ? 1
                 : 0;
    }
    return n;
}

bool
Report::hasRule(std::string_view rule) const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

std::string
Report::format() const
{
    std::string out;
    for (const Diagnostic &d : diagnostics) {
        out += d.format();
        out += '\n';
    }
    return out;
}

std::string
Report::toJson() const
{
    std::string out = "{\"diagnostics\": [";
    bool first = true;
    for (const Diagnostic &d : diagnostics) {
        if (!first)
            out += ", ";
        first = false;
        out += "\n  {\"rule\": \"";
        out += core::jsonEscape(d.rule);
        out += "\", \"severity\": \"";
        out += severityName(d.severity);
        out += "\", \"segment\": \"";
        out += segmentName(d.segment);
        out += "\", \"index\": ";
        out += std::to_string(d.index);
        out += ", \"insn\": \"";
        out += core::jsonEscape(d.insn);
        out += "\", \"message\": \"";
        out += core::jsonEscape(d.message);
        out += "\"}";
    }
    out += diagnostics.empty() ? "]}" : "\n]}";
    out += '\n';
    return out;
}

Report
Report::fromJson(const std::string &text)
{
    Report rep;
    core::JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key != "diagnostics") {
                cur.skipValue();
                continue;
            }
            cur.expect('[');
            if (cur.tryConsume(']'))
                continue;
            do {
                Diagnostic d;
                cur.expect('{');
                do {
                    std::string field = cur.parseString();
                    cur.expect(':');
                    if (field == "rule") {
                        d.rule = cur.parseString();
                    } else if (field == "severity") {
                        std::string name = cur.parseString();
                        auto sev = severityFromName(name);
                        if (!sev)
                            fatal("lint report: unknown severity '",
                                  name, "'");
                        d.severity = *sev;
                    } else if (field == "segment") {
                        std::string name = cur.parseString();
                        if (name == "init") {
                            d.segment = Segment::Init;
                        } else if (name == "body") {
                            d.segment = Segment::Body;
                        } else {
                            fatal("lint report: unknown segment '",
                                  name, "'");
                        }
                    } else if (field == "index") {
                        d.index = static_cast<std::int32_t>(
                            cur.parseNumber());
                    } else if (field == "insn") {
                        d.insn = cur.parseString();
                    } else if (field == "message") {
                        d.message = cur.parseString();
                    } else {
                        cur.skipValue();
                    }
                } while (cur.tryConsume(','));
                cur.expect('}');
                rep.diagnostics.push_back(std::move(d));
            } while (cur.tryConsume(','));
            cur.expect(']');
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    return rep;
}

namespace
{
const char *const kCsvHeader = "rule,severity,segment,index,insn,message";
} // namespace

std::string
Report::toCsv() const
{
    std::string out = kCsvHeader;
    out += '\n';
    for (const Diagnostic &d : diagnostics) {
        out += core::csvEscape(d.rule);
        out += ',';
        out += severityName(d.severity);
        out += ',';
        out += segmentName(d.segment);
        out += ',';
        out += std::to_string(d.index);
        out += ',';
        out += core::csvEscape(d.insn);
        out += ',';
        out += core::csvEscape(d.message);
        out += '\n';
    }
    return out;
}

Report
Report::fromCsv(const std::string &text)
{
    Report rep;
    std::size_t pos = 0;
    bool saw_header = false;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (!saw_header) {
            if (line != kCsvHeader)
                fatal("lint report CSV: bad header '", line, "'");
            saw_header = true;
            continue;
        }
        std::vector<std::string> fields = core::splitCsvRecord(line);
        if (fields.size() != 6)
            fatal("lint report CSV: expected 6 fields, got ",
                  fields.size());
        Diagnostic d;
        d.rule = core::csvUnescape(fields[0]);
        auto sev = severityFromName(fields[1]);
        if (!sev)
            fatal("lint report CSV: unknown severity '", fields[1],
                  "'");
        d.severity = *sev;
        if (fields[2] == "init") {
            d.segment = Segment::Init;
        } else if (fields[2] == "body") {
            d.segment = Segment::Body;
        } else {
            fatal("lint report CSV: unknown segment '", fields[2],
                  "'");
        }
        try {
            d.index = std::stoi(fields[3]);
        } catch (const std::exception &) {
            fatal("lint report CSV: bad index '", fields[3], "'");
        }
        d.insn = core::csvUnescape(fields[4]);
        d.message = core::csvUnescape(fields[5]);
        rep.diagnostics.push_back(std::move(d));
    }
    if (!saw_header)
        fatal("lint report CSV: missing header");
    return rep;
}

Context
Context::forRunner(const core::Runner &runner)
{
    Context ctx;
    ctx.mode = runner.mode();
    ctx.r14Base = runner.r14Area();
    ctx.r14Size = runner.r14AreaSize();
    ctx.resultBase = runner.resultArea();
    ctx.resultSize = core::layout::kAreaSize;
    return ctx;
}

Context
Context::forCampaign(
    core::Runner &runner,
    const std::function<void(core::Runner &)> &machineSetup)
{
    if (machineSetup)
        machineSetup(runner);
    return forRunner(runner);
}

Report
analyzeSpec(const uarch::MicroArch &ua,
            const core::BenchmarkSpec &spec, const Context &ctx)
{
    Report rep;

    std::vector<Instruction> init_code = spec.init;
    if (init_code.empty() && !spec.asmInit.empty())
        init_code = x86::assemble(spec.asmInit);
    std::vector<Instruction> body_code = spec.code;
    if (body_code.empty() && !spec.asmCode.empty())
        body_code = x86::assemble(spec.asmCode);

    // R0: unsupported opcodes, with position (the decode-time fault,
    // as a diagnostic instead of a FatalError).
    bool unsupported = false;
    auto scan_r0 = [&](const std::vector<Instruction> &code,
                       Segment seg) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (uarch::supportsOpcode(ua.family, code[i].opcode))
                continue;
            unsupported = true;
            addDiag(rep, "R0", Severity::Error, seg,
                    static_cast<std::int32_t>(i), code[i].toString(),
                    std::string(code[i].info().mnemonic) +
                        " is not supported on " + ua.name);
        }
    };
    scan_r0(init_code, Segment::Init);
    scan_r0(body_code, Segment::Body);
    if (unsupported)
        return rep; // decode would fault; nothing else to analyze

    std::uint64_t unroll = std::max<std::uint64_t>(
        1, spec.unrollCount);

    sim::Program init_prog = [&] {
        std::vector<sim::Program::Segment> segs(1);
        segs[0].code = init_code;
        return sim::Program::decode(ua, std::move(segs));
    }();
    sim::Program body_prog = [&] {
        std::vector<sim::Program::Segment> segs(1);
        segs[0].code = body_code;
        segs[0].repeat = unroll;
        return sim::Program::decode(ua, std::move(segs));
    }();

    const Mask r14_bit = regBit(Reg::R14);
    const Mask r15_bit = regBit(Reg::R15);

    Flow flow;
    flow.reset();
    bool r14_exact = true;       // R14 still holds the segment-entry
                                 // value (R5 bounds are meaningful)
    bool init_writes_flags = false;
    Opcode last_init_flags_writer = Opcode::NOP;

    // R5a/R5b, shared by both segments.
    auto check_memory = [&](const sim::Program &prog,
                            const sim::DecodedInsn &d, Segment seg,
                            std::int32_t idx) {
        const Instruction &insn = prog.insn(d);
        const x86::Operand *mem = insn.memOperand();
        if (!mem)
            return;
        unsigned bytes = std::max(1u, mem->widthBits / 8);
        if (mem->mem.base == Reg::R14 &&
            mem->mem.index == Reg::Invalid && r14_exact) {
            if (mem->mem.disp < 0 ||
                static_cast<Addr>(mem->mem.disp) + bytes >
                    ctx.r14Size) {
                addDiag(rep, "R5", Severity::Error, seg, idx,
                        insn.toString(),
                        "R14-relative access at offset " +
                            std::to_string(mem->mem.disp) + " (" +
                            std::to_string(bytes) +
                            " bytes) leaves the reserved " +
                            std::to_string(ctx.r14Size) +
                            "-byte memory area");
            }
        }
        if (mem->mem.base == Reg::Invalid &&
            mem->mem.index == Reg::Invalid && ctx.resultBase != 0 &&
            !spec.noMem && mem->mem.disp >= 0) {
            Addr addr = static_cast<Addr>(mem->mem.disp);
            if (addr < ctx.resultBase + ctx.resultSize &&
                addr + bytes > ctx.resultBase) {
                addDiag(rep, "R5",
                        d.hasStore ? Severity::Error
                                   : Severity::Warning,
                        seg, idx, insn.toString(),
                        std::string(d.hasStore ? "store to"
                                               : "load from") +
                            " the measurement results area (counter "
                            "readouts live at this address)");
            }
        }
    };

    // Init pass: carries register derivation into the body; its own
    // rules are R5 (above) and the R6 precondition.
    for (std::size_t i = 0; i < init_prog.entryCount(); ++i) {
        const sim::DecodedInsn &d = init_prog.entry(i);
        check_memory(init_prog, d, Segment::Init,
                     static_cast<std::int32_t>(i));
        if (d.writesFlags) {
            init_writes_flags = true;
            last_init_flags_writer = init_prog.insn(d).opcode;
        }
        step(flow, init_prog, d, false);
        if (defMask(init_prog, d) & r14_bit)
            r14_exact = (flow.deps[regIdx(Reg::R14)] & r14_bit) != 0;
    }

    // Body pass.
    const auto &accs = core::noMemAccumulators();
    Mask acc_reported = 0;
    bool body_wrote_flags = false;
    std::int32_t first_flags_reader = -1;
    bool pre_write_reads_only_cf = true;
    std::uint64_t body_repeat =
        body_prog.blocks().empty() ? unroll
                                   : body_prog.blocks()[0].repeat;

    for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
        const sim::DecodedInsn &d = body_prog.entry(i);
        const Instruction &insn = body_prog.insn(d);
        auto idx = static_cast<std::int32_t>(i);
        Mask defs = defMask(body_prog, d);
        Mask uses = useMask(body_prog, d);

        check_memory(body_prog, d, Segment::Body, idx);

        // R2: noMem accumulator interference (§III-I).
        if (spec.noMem) {
            for (Reg acc : accs) {
                Mask ab = regBit(acc);
                if (acc_reported & ab)
                    continue;
                if (defs & ab) {
                    acc_reported |= ab;
                    addDiag(rep, "R2", Severity::Error, Segment::Body,
                            idx, insn.toString(),
                            "the body writes " + x86::regName(acc) +
                                ", a noMem readout accumulator; the "
                                "measured counter values are "
                                "corrupted");
                } else if (uses & ab) {
                    acc_reported |= ab;
                    addDiag(rep, "R2", Severity::Warning,
                            Segment::Body, idx, insn.toString(),
                            "the body reads " + x86::regName(acc) +
                                ", a noMem readout accumulator "
                                "holding measurement state");
                }
            }
        }

        // R6: flags set in init do not survive the counter readout
        // (the per-item SHL/OR accumulation rewrites RFLAGS between
        // init and the first body instruction).
        if (d.readsFlags && !body_wrote_flags) {
            if (first_flags_reader < 0)
                first_flags_reader = idx;
            pre_write_reads_only_cf =
                pre_write_reads_only_cf && readsOnlyCarry(insn.opcode);
        }
        if (d.writesFlags)
            body_wrote_flags = true;

        // R1: measurement-reserved registers (R15 loop counter,
        // §III-B; R14 memory-area base, §III-G).
        if ((defs & r15_bit) && spec.loopCount > 0) {
            std::string msg =
                "the body writes R15, the measurement loop counter "
                "(loopCount = " +
                std::to_string(spec.loopCount) + ")";
            if (body_repeat > 1) {
                msg += "; one static write is " +
                       std::to_string(body_repeat) +
                       " dynamic clobbers across the unrolled copies";
            }
            addDiag(rep, "R1", Severity::Error, Segment::Body, idx,
                    insn.toString(), std::move(msg));
        }

        step(flow, body_prog, d, false);

        if (defs & r14_bit) {
            bool derived =
                (flow.deps[regIdx(Reg::R14)] & r14_bit) != 0;
            if (!derived) {
                std::string msg =
                    "the body overwrites R14 with a value not "
                    "derived from the memory-area base; later "
                    "R14-relative accesses leave the reserved area";
                if (body_repeat > 1) {
                    msg += " (" + std::to_string(body_repeat) +
                           " dynamic clobbers across the unrolled "
                           "copies)";
                }
                addDiag(rep, "R1", Severity::Warning, Segment::Body,
                        idx, insn.toString(), std::move(msg));
            }
            r14_exact = false;
        }
    }

    // The one flag state that *does* survive the readout is CF = 0:
    // the readout's OR accumulation clears CF, so an init that ends
    // on a CF-clearing logic instruction feeding only carry readers
    // (the planners' "TEST RBX, RBX before an ADC chain" pattern) is
    // sound and stays silent.
    bool init_flags_survive =
        pre_write_reads_only_cf && clearsCarry(last_init_flags_writer);
    if (init_writes_flags && first_flags_reader >= 0 &&
        !init_flags_survive) {
        const sim::DecodedInsn &d =
            body_prog.entry(static_cast<std::size_t>(
                first_flags_reader));
        addDiag(rep, "R6", Severity::Warning, Segment::Body,
                first_flags_reader, body_prog.insn(d).toString(),
                "reads flags before the body writes them, but the "
                "flags set in init do not survive the counter "
                "readout between init and body (the readout's "
                "SHL/OR accumulation rewrites RFLAGS; only CF = 0 "
                "from a trailing logic instruction survives)");
    }

    // R3: loop-carried dependency chain (latency methodology,
    // §III-A; uops.info dependency-chaining).
    if (ctx.chain != Context::Chain::Ignore &&
        body_prog.entryCount() > 0) {
        bool chain_real = chainExists(body_prog, false);
        bool chain_if_idioms_read = chainExists(body_prog, true);
        std::int32_t first_idiom = -1;
        std::size_t idiom_count = 0;
        for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
            if (!body_prog.entry(i).zeroIdiom)
                continue;
            ++idiom_count;
            if (first_idiom < 0)
                first_idiom = static_cast<std::int32_t>(i);
        }
        if (ctx.chain == Context::Chain::Expect && !chain_real) {
            if (chain_if_idioms_read && first_idiom >= 0) {
                const sim::DecodedInsn &d = body_prog.entry(
                    static_cast<std::size_t>(first_idiom));
                addDiag(rep, "R3", Severity::Error, Segment::Body,
                        first_idiom, body_prog.insn(d).toString(),
                        "this zero idiom breaks the loop-carried "
                        "dependency chain; the spec measures "
                        "throughput, not latency");
            } else {
                addDiag(rep, "R3", Severity::Error, Segment::Body,
                        -1, "",
                        "no loop-carried dependency chain threads "
                        "the body back to itself; latency-style "
                        "measurement needs one");
            }
        } else if (ctx.chain == Context::Chain::Auto && !chain_real &&
                   chain_if_idioms_read && idiom_count == 1) {
            const sim::DecodedInsn &d = body_prog.entry(
                static_cast<std::size_t>(first_idiom));
            addDiag(rep, "R3", Severity::Warning, Segment::Body,
                    first_idiom, body_prog.insn(d).toString(),
                    "this zero idiom breaks the only loop-carried "
                    "dependency chain in the body; if a latency "
                    "measurement was intended, the result is "
                    "throughput-bound");
        }
    }

    // R4: dead measured code -- a pure register result overwritten
    // later in the static body pattern before any read. Overwrite by
    // the *next unroll copy* of the same instruction is throughput
    // idiom, not deadness, so the scan does not wrap around.
    for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
        const sim::DecodedInsn &d = body_prog.entry(i);
        const Instruction &insn = body_prog.insn(d);
        if (d.hasLoad || d.hasStore || d.isBranch || d.writesFlags ||
            d.zeroIdiom || d.privileged || d.dstCount != 1 ||
            deadRuleExemptClass(insn.info().cls))
            continue;
        if (insn.operands.empty() ||
            insn.operands[0].kind != x86::OperandKind::Register ||
            insn.operands[0].reg != body_prog.dstRegs(d)[0] ||
            insn.operands[0].widthBits < 32)
            continue;
        Reg dst = body_prog.dstRegs(d)[0];
        Mask db = regBit(dst);
        for (std::size_t j = i + 1; j < body_prog.entryCount(); ++j) {
            const sim::DecodedInsn &dj = body_prog.entry(j);
            if (useMask(body_prog, dj) & db)
                break; // live
            if (defMask(body_prog, dj) & db) {
                if (defWidth(body_prog, dj, dst) >= 32) {
                    addDiag(rep, "R4", Severity::Warning,
                            Segment::Body,
                            static_cast<std::int32_t>(i),
                            insn.toString(),
                            "result in " + x86::regName(dst) +
                                " is overwritten by body "
                                "instruction " +
                                std::to_string(j) +
                                " without being read: dead measured "
                                "code");
                }
                break; // killed (or partially merged: treat as live)
            }
        }
    }

    // R7: model consistency -- the declared measurement intent vs the
    // bottleneck the static performance model predicts for the body
    // (analysis/bound.hh; the uops.info latency/throughput split).
    if (ctx.intent != Context::Intent::None &&
        body_prog.entryCount() > 0) {
        BoundReport bound = analyzeBounds(ua, body_prog);
        std::string bounds_txt =
            "latency " + shortDouble(bound.latencyBound) +
            " vs ports " + shortDouble(bound.portBound) +
            " vs front-end " + shortDouble(bound.frontEndBound) +
            " cycles/copy";
        if (ctx.intent == Context::Intent::Latency &&
            bound.bottleneck != Bottleneck::Latency) {
            // An architectural chain that carries no guaranteed
            // timing edge (LEA and pure-store address operands: the
            // scheduler reads address registers without stalling on
            // them) is a property of the instruction, not a planner
            // mistake -- informational, like the ADC/SBB flags
            // serialization below. No chain at all is an error.
            if (chainExists(body_prog, false)) {
                addDiag(rep, "R7", Severity::Info, Segment::Body, -1,
                        "",
                        "declared a latency measurement, but the "
                        "dependency chain is address-carried and the "
                        "scheduler does not serialize address-"
                        "register reads of non-load uops (" +
                            bounds_txt +
                            "); expect the measurement to "
                            "underestimate the architectural "
                            "latency");
            } else {
                addDiag(rep, "R7", Severity::Error, Segment::Body, -1,
                        "",
                        "declared a latency measurement, but the "
                        "model predicts a " +
                            std::string(
                                bottleneckName(bound.bottleneck)) +
                            "-bound body (" + bounds_txt +
                            "); the dependency chain does not bind "
                            "the measured cycles");
            }
        } else if (ctx.intent == Context::Intent::Throughput &&
                   bound.bottleneck == Bottleneck::Latency) {
            std::int32_t idx = bound.criticalPath.empty()
                                   ? -1
                                   : bound.criticalPath[0].index;
            std::string insn =
                bound.criticalPath.empty()
                    ? std::string()
                    : bound.criticalPath[0].insn;
            addDiag(rep, "R7", Severity::Info, Segment::Body, idx,
                    std::move(insn),
                    "declared a throughput measurement, but the "
                    "model predicts the loop-carried dependency "
                    "chain binds (" +
                        bounds_txt +
                        "); expect chain-serialized results");
        }
    }

    std::stable_sort(rep.diagnostics.begin(), rep.diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.rule < b.rule;
                     });
    return rep;
}

namespace
{

/**
 * Whole-report memo keyed on (uarch, context, canonical spec key),
 * mirroring the engine's assemble cache: campaign executors lint each
 * unique spec once per process. Bounded by clearing when full;
 * specs outnumbering the bound re-analyze, never grow memory.
 */
struct LintCache
{
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<const Report>>
        reports;
    CacheStats stats;

    static constexpr std::size_t kMaxEntries = 4096;
};

LintCache &
lintCache()
{
    static LintCache cache;
    return cache;
}

std::string
lintCacheKey(const uarch::MicroArch &ua,
             const core::BenchmarkSpec &spec, const Context &ctx)
{
    std::string key = ua.name;
    key += '\0';
    key += core::modeName(ctx.mode);
    key += '\0';
    key += std::to_string(ctx.r14Base);
    key += ',';
    key += std::to_string(ctx.r14Size);
    key += ',';
    key += std::to_string(ctx.resultBase);
    key += ',';
    key += std::to_string(ctx.resultSize);
    key += ',';
    key += std::to_string(static_cast<unsigned>(ctx.chain));
    key += ',';
    key += std::to_string(static_cast<unsigned>(ctx.intent));
    key += '\0';
    key += core::specCanonicalKey(spec);
    return key;
}

} // namespace

Report
analyzeSpecCached(const uarch::MicroArch &ua,
                  const core::BenchmarkSpec &spec, const Context &ctx)
{
    LintCache &cache = lintCache();
    std::string key = lintCacheKey(ua, spec, ctx);
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.reports.find(key);
        if (it != cache.reports.end()) {
            ++cache.stats.hits;
            return *it->second;
        }
    }

    // Analyze outside the lock (assembly of a large spec is not
    // cheap); a concurrent duplicate analysis is harmless.
    Report rep = analyzeSpec(ua, spec, ctx);

    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        ++cache.stats.misses;
        if (cache.reports.size() >= LintCache::kMaxEntries) {
            cache.stats.evictions += cache.reports.size();
            cache.reports.clear();
        }
        cache.reports.emplace(
            std::move(key), std::make_shared<const Report>(rep));
    }
    return rep;
}

CacheStats
lintCacheCounters()
{
    LintCache &cache = lintCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.stats;
}

} // namespace nb::analysis
