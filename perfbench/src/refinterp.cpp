#include "refinterp.h"

#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

using adlsym::core::DefectKind;
using adlsym::workloads::PInst;
using adlsym::workloads::POp;
using adlsym::workloads::PProgram;

RefResult runReference(const PProgram& p, const std::vector<uint64_t>& inputs,
                       uint64_t maxSteps) {
  std::map<std::string, size_t> labels;
  for (size_t k = 0; k < p.insts.size(); ++k) {
    if (p.insts[k].op == POp::Label) labels[p.insts[k].label] = k;
  }
  std::map<std::string, std::vector<uint8_t>> arrays;
  for (const auto& a : p.arrays) arrays[a.name] = a.init;

  RefResult r;
  uint8_t v[PProgram::kMaxVRegs] = {};
  auto jump = [&](const std::string& l) {
    const auto it = labels.find(l);
    if (it == labels.end()) throw std::invalid_argument("unknown label " + l);
    return it->second;
  };
  auto defect = [&](DefectKind k) {
    r.end = RefResult::End::Defect;
    r.defect = k;
    return r;
  };
  size_t pc = 0;
  for (uint64_t step = 0; step < maxSteps; ++step) {
    if (pc >= p.insts.size()) throw std::invalid_argument("fell off the program");
    const PInst& i = p.insts[pc++];
    switch (i.op) {
      case POp::Li: v[i.a] = static_cast<uint8_t>(i.imm); break;
      case POp::Mov: v[i.a] = v[i.b]; break;
      case POp::Add: v[i.a] = static_cast<uint8_t>(v[i.b] + v[i.c]); break;
      case POp::Sub: v[i.a] = static_cast<uint8_t>(v[i.b] - v[i.c]); break;
      case POp::And: v[i.a] = v[i.b] & v[i.c]; break;
      case POp::Or: v[i.a] = v[i.b] | v[i.c]; break;
      case POp::Xor: v[i.a] = v[i.b] ^ v[i.c]; break;
      case POp::Mul: v[i.a] = static_cast<uint8_t>(v[i.b] * v[i.c]); break;
      case POp::DivU:
        if (v[i.c] == 0) return defect(DefectKind::DivByZero);
        v[i.a] = static_cast<uint8_t>(v[i.b] / v[i.c]);
        break;
      case POp::AddV: {
        const int sum = static_cast<int8_t>(v[i.b]) + static_cast<int8_t>(v[i.c]);
        if (sum < -128 || sum > 127) return defect(DefectKind::Trap);
        v[i.a] = static_cast<uint8_t>(v[i.b] + v[i.c]);
        break;
      }
      case POp::ShlI: v[i.a] = static_cast<uint8_t>(v[i.b] << i.imm); break;
      case POp::ShrI: v[i.a] = static_cast<uint8_t>(v[i.b] >> i.imm); break;
      case POp::LoadArr: {
        const std::vector<uint8_t>& arr = arrays.at(i.array);
        if (v[i.b] >= arr.size()) return defect(DefectKind::OobRead);
        v[i.a] = arr[v[i.b]];
        break;
      }
      case POp::StoreArr: {
        std::vector<uint8_t>& arr = arrays.at(i.array);
        if (v[i.a] >= arr.size()) return defect(DefectKind::OobWrite);
        arr[v[i.a]] = v[i.b];
        break;
      }
      case POp::In:
        if (r.inputsConsumed == inputs.size()) {
          r.end = RefResult::End::InputExhausted;
          return r;
        }
        v[i.a] = static_cast<uint8_t>(inputs[r.inputsConsumed++]);
        break;
      case POp::Out: r.outputs.push_back(v[i.a]); break;
      case POp::Halt:
        r.end = RefResult::End::Exited;
        r.exitCode = i.imm & 0xff;
        return r;
      case POp::AssertEqR:
        if (v[i.a] != v[i.b]) return defect(DefectKind::AssertFail);
        break;
      case POp::Label: break;
      case POp::Jmp: pc = jump(i.label); break;
      case POp::Beq: if (v[i.a] == v[i.b]) pc = jump(i.label); break;
      case POp::Bne: if (v[i.a] != v[i.b]) pc = jump(i.label); break;
      case POp::Bltu: if (v[i.a] < v[i.b]) pc = jump(i.label); break;
      case POp::Bgeu: if (v[i.a] >= v[i.b]) pc = jump(i.label); break;
    }
  }
  r.end = RefResult::End::StepLimit;
  return r;
}

}  // namespace perfbench
