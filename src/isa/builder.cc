#include "isa/builder.hh"

#include <cstring>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace sdv {

ProgramBuilder::ProgramBuilder(Addr code_base, Addr data_base)
    : program_(code_base), dataBase_(data_base), dataBump_(data_base)
{
    sdv_assert(data_base % 8 == 0, "misaligned data base");
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    labelSlot_.push_back(-1);
    return Label(labelSlot_.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    sdv_assert(label >= 0 && size_t(label) < labelSlot_.size(),
               "unknown label");
    sdv_assert(labelSlot_[size_t(label)] < 0, "label bound twice");
    labelSlot_[size_t(label)] = std::int64_t(program_.numInsts());
}

ProgramBuilder::Label
ProgramBuilder::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

void
ProgramBuilder::emit(Opcode op, RegId rd, RegId rs1, RegId rs2,
                     std::int32_t imm)
{
    sdv_assert(!finished_, "builder reused after finish()");
    program_.append(Instruction(op, rd, rs1, rs2, imm));
}

void
ProgramBuilder::emitBranch(Opcode op, RegId rd, RegId rs1, Label target)
{
    sdv_assert(target >= 0 && size_t(target) < labelSlot_.size(),
               "unknown label");
    fixups_.push_back({program_.numInsts(), target});
    emit(op, rd, rs1, 0, 0);
}

std::int32_t
ProgramBuilder::branchOffset(size_t from_slot, size_t to_slot) const
{
    return std::int32_t(std::int64_t(to_slot) - std::int64_t(from_slot));
}

// --- integer ALU -----------------------------------------------------------

void ProgramBuilder::add(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::ADD, rd, rs1, rs2, 0); }
void ProgramBuilder::sub(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::SUB, rd, rs1, rs2, 0); }
void ProgramBuilder::mul(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::MUL, rd, rs1, rs2, 0); }
void ProgramBuilder::div(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::DIV, rd, rs1, rs2, 0); }
void ProgramBuilder::and_(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::AND, rd, rs1, rs2, 0); }
void ProgramBuilder::or_(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::OR, rd, rs1, rs2, 0); }
void ProgramBuilder::xor_(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::XOR, rd, rs1, rs2, 0); }
void ProgramBuilder::sll(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::SLL, rd, rs1, rs2, 0); }
void ProgramBuilder::srl(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::SRL, rd, rs1, rs2, 0); }
void ProgramBuilder::sra(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::SRA, rd, rs1, rs2, 0); }
void ProgramBuilder::cmpeq(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::CMPEQ, rd, rs1, rs2, 0); }
void ProgramBuilder::cmplt(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::CMPLT, rd, rs1, rs2, 0); }
void ProgramBuilder::cmple(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::CMPLE, rd, rs1, rs2, 0); }
void ProgramBuilder::cmpult(RegId rd, RegId rs1, RegId rs2)
{ emit(Opcode::CMPULT, rd, rs1, rs2, 0); }

void ProgramBuilder::addi(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::ADDI, rd, rs1, 0, imm); }
void ProgramBuilder::andi(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::ANDI, rd, rs1, 0, imm); }
void ProgramBuilder::ori(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::ORI, rd, rs1, 0, imm); }
void ProgramBuilder::xori(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::XORI, rd, rs1, 0, imm); }
void ProgramBuilder::slli(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::SLLI, rd, rs1, 0, imm); }
void ProgramBuilder::srli(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::SRLI, rd, rs1, 0, imm); }
void ProgramBuilder::srai(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::SRAI, rd, rs1, 0, imm); }
void ProgramBuilder::cmpeqi(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::CMPEQI, rd, rs1, 0, imm); }
void ProgramBuilder::cmplti(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::CMPLTI, rd, rs1, 0, imm); }

void ProgramBuilder::ldi(RegId rd, std::int32_t imm)
{ emit(Opcode::LDI, rd, 0, 0, imm); }
void ProgramBuilder::ldih(RegId rd, RegId rs1, std::int32_t imm)
{ emit(Opcode::LDIH, rd, rs1, 0, imm); }

void
ProgramBuilder::loadImm64(RegId rd, std::uint64_t value)
{
    const auto low = std::uint32_t(value);
    const auto high = std::uint32_t(value >> 32);
    ldi(rd, std::int32_t(low));
    // LDI sign-extends; emit LDIH only when the upper half differs from
    // that sign extension.
    const auto sext_high =
        std::uint32_t(std::uint64_t(signExtend(low, 32)) >> 32);
    if (high != sext_high)
        ldih(rd, rd, std::int32_t(high));
}

void
ProgramBuilder::mov(RegId rd, RegId rs)
{
    ori(rd, rs, 0);
}

// --- floating point ----------------------------------------------------------

void ProgramBuilder::fadd(RegId fd, RegId fs1, RegId fs2)
{ emit(Opcode::FADD, fd, fs1, fs2, 0); }
void ProgramBuilder::fsub(RegId fd, RegId fs1, RegId fs2)
{ emit(Opcode::FSUB, fd, fs1, fs2, 0); }
void ProgramBuilder::fmul(RegId fd, RegId fs1, RegId fs2)
{ emit(Opcode::FMUL, fd, fs1, fs2, 0); }
void ProgramBuilder::fdiv(RegId fd, RegId fs1, RegId fs2)
{ emit(Opcode::FDIV, fd, fs1, fs2, 0); }
void ProgramBuilder::fneg(RegId fd, RegId fs1)
{ emit(Opcode::FNEG, fd, fs1, 0, 0); }
void ProgramBuilder::fabs_(RegId fd, RegId fs1)
{ emit(Opcode::FABS, fd, fs1, 0, 0); }
void ProgramBuilder::fmov(RegId fd, RegId fs1)
{ emit(Opcode::FMOV, fd, fs1, 0, 0); }
void ProgramBuilder::fcmpeq(RegId rd, RegId fs1, RegId fs2)
{ emit(Opcode::FCMPEQ, rd, fs1, fs2, 0); }
void ProgramBuilder::fcmplt(RegId rd, RegId fs1, RegId fs2)
{ emit(Opcode::FCMPLT, rd, fs1, fs2, 0); }
void ProgramBuilder::fcmple(RegId rd, RegId fs1, RegId fs2)
{ emit(Opcode::FCMPLE, rd, fs1, fs2, 0); }
void ProgramBuilder::cvtif(RegId fd, RegId rs1)
{ emit(Opcode::CVTIF, fd, rs1, 0, 0); }
void ProgramBuilder::cvtfi(RegId rd, RegId fs1)
{ emit(Opcode::CVTFI, rd, fs1, 0, 0); }

// --- memory --------------------------------------------------------------------

void ProgramBuilder::ldq(RegId rd, RegId base, std::int32_t disp)
{ emit(Opcode::LDQ, rd, base, 0, disp); }
void ProgramBuilder::ldl(RegId rd, RegId base, std::int32_t disp)
{ emit(Opcode::LDL, rd, base, 0, disp); }
void ProgramBuilder::fld(RegId fd, RegId base, std::int32_t disp)
{ emit(Opcode::FLD, fd, base, 0, disp); }
void ProgramBuilder::stq(RegId value, RegId base, std::int32_t disp)
{ emit(Opcode::STQ, 0, base, value, disp); }
void ProgramBuilder::stl(RegId value, RegId base, std::int32_t disp)
{ emit(Opcode::STL, 0, base, value, disp); }
void ProgramBuilder::fst(RegId value, RegId base, std::int32_t disp)
{ emit(Opcode::FST, 0, base, value, disp); }

// --- control ---------------------------------------------------------------------

void ProgramBuilder::beqz(RegId rs1, Label target)
{ emitBranch(Opcode::BEQZ, 0, rs1, target); }
void ProgramBuilder::bnez(RegId rs1, Label target)
{ emitBranch(Opcode::BNEZ, 0, rs1, target); }
void ProgramBuilder::bltz(RegId rs1, Label target)
{ emitBranch(Opcode::BLTZ, 0, rs1, target); }
void ProgramBuilder::bgez(RegId rs1, Label target)
{ emitBranch(Opcode::BGEZ, 0, rs1, target); }
void ProgramBuilder::br(Label target)
{ emitBranch(Opcode::BR, 0, 0, target); }
void ProgramBuilder::jal(Label target, RegId link)
{ emitBranch(Opcode::JAL, link, 0, target); }
void ProgramBuilder::jr(RegId rs1)
{ emit(Opcode::JR, 0, rs1, 0, 0); }
void ProgramBuilder::jalr(RegId rd, RegId rs1)
{ emit(Opcode::JALR, rd, rs1, 0, 0); }

void ProgramBuilder::nop() { emit(Opcode::NOP, 0, 0, 0, 0); }
void ProgramBuilder::halt() { emit(Opcode::HALT, 0, 0, 0, 0); }

void
ProgramBuilder::raw(const Instruction &inst)
{
    sdv_assert(!finished_, "builder reused after finish()");
    program_.append(inst);
}

// --- data ------------------------------------------------------------------------

Addr
ProgramBuilder::allocWords(const std::string &name, size_t count)
{
    return allocBytes(name, count * 8);
}

Addr
ProgramBuilder::allocBytes(const std::string &name, size_t bytes)
{
    const Addr base = alignUp(dataBump_, 8);
    dataBump_ = base + alignUp(bytes, 8);
    if (!name.empty())
        program_.defineSymbol(name, base);
    return base;
}

void
ProgramBuilder::pokeWord(Addr addr, std::uint64_t value)
{
    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &value, 8);
    pokes_.emplace_back(addr, std::move(bytes));
}

void
ProgramBuilder::pokeWord32(Addr addr, std::uint32_t value)
{
    std::vector<std::uint8_t> bytes(4);
    std::memcpy(bytes.data(), &value, 4);
    pokes_.emplace_back(addr, std::move(bytes));
}

void
ProgramBuilder::pokeDouble(Addr addr, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, 8);
    pokeWord(addr, bits);
}

void
ProgramBuilder::defineSymbol(const std::string &name, Addr value)
{
    program_.defineSymbol(name, value);
}

bool
ProgramBuilder::symbol(const std::string &name, Addr &out) const
{
    return program_.symbol(name, out);
}

Program
ProgramBuilder::finish()
{
    sdv_assert(!finished_, "finish() called twice");
    finished_ = true;

    for (const Fixup &f : fixups_) {
        const std::int64_t slot = labelSlot_[size_t(f.label)];
        sdv_assert(slot >= 0, "unbound label used by instruction ", f.slot);
        // Decode the fixup slot from its encoded word: going through
        // instAt() would compile the whole trace for every program built.
        Instruction inst;
        const bool ok = Instruction::decode(
            program_.encodedAt(program_.codeBase() + f.slot * instBytes),
            inst);
        sdv_assert(ok, "undecodable instruction in fixup slot ", f.slot);
        inst.imm = branchOffset(f.slot, size_t(slot));
        program_.patch(f.slot, inst);
    }

    if (dataBump_ > dataBase_) {
        DataSegment seg;
        seg.base = dataBase_;
        seg.bytes.assign(size_t(dataBump_ - dataBase_), 0);
        for (const auto &[addr, bytes] : pokes_) {
            sdv_assert(addr >= seg.base &&
                           addr + bytes.size() <= seg.base + seg.bytes.size(),
                       "poke outside allocated data");
            std::memcpy(seg.bytes.data() + (addr - seg.base), bytes.data(),
                        bytes.size());
        }
        program_.addData(std::move(seg));
    }

    return std::move(program_);
}

} // namespace sdv
