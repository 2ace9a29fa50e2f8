#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/memory.h"
#include "driver/session.h"
#include "smt/printer.h"
#include "smt/term.h"
#include "workloads/programs.h"

namespace adlsym::core {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  smt::TermManager tm;
  loader::Image img;

  void SetUp() override {
    loader::Section s;
    s.name = "data";
    s.base = 0x100;
    s.bytes = {10, 20, 30, 40};
    s.writable = true;
    img.addSection(std::move(s));
  }
};

TEST_F(MemoryTest, ReadsFallThroughToImage) {
  SymMemory mem(&img);
  smt::TermRef b = mem.readByte(tm, 0x101);
  ASSERT_TRUE(b.isConst());
  EXPECT_EQ(b.constValue(), 20u);
  EXPECT_FALSE(mem.readByte(tm, 0x200).valid());  // unmapped
}

TEST_F(MemoryTest, WritesShadowImage) {
  SymMemory mem(&img);
  mem.writeByte(0x101, tm.mkConst(8, 99));
  EXPECT_EQ(mem.readByte(tm, 0x101).constValue(), 99u);
  EXPECT_EQ(mem.readByte(tm, 0x102).constValue(), 30u);
  // Symbolic values round-trip.
  smt::TermRef v = tm.mkVar(8, "v");
  mem.writeByte(0x100, v);
  EXPECT_EQ(mem.readByte(tm, 0x100), v);
}

TEST_F(MemoryTest, ForkIsolation) {
  SymMemory a(&img);
  a.writeByte(0x100, tm.mkConst(8, 1));
  SymMemory b = a;  // fork
  b.writeByte(0x100, tm.mkConst(8, 2));
  b.writeByte(0x101, tm.mkConst(8, 3));
  // Parent unaffected by child writes.
  EXPECT_EQ(a.readByte(tm, 0x100).constValue(), 1u);
  EXPECT_EQ(a.readByte(tm, 0x101).constValue(), 20u);
  EXPECT_EQ(b.readByte(tm, 0x100).constValue(), 2u);
  EXPECT_EQ(b.readByte(tm, 0x101).constValue(), 3u);
  // And the child sees pre-fork writes it didn't shadow.
  SymMemory c = a;
  EXPECT_EQ(c.readByte(tm, 0x100).constValue(), 1u);
}

TEST_F(MemoryTest, UniquelyOwnedHeadIsReused) {
  SymMemory mem(&img);
  mem.writeByte(0x100, tm.mkConst(8, 1));
  mem.writeByte(0x101, tm.mkConst(8, 2));
  mem.writeByte(0x102, tm.mkConst(8, 3));
  EXPECT_EQ(mem.chainDepth(), 1u);  // no forks: single node
  EXPECT_EQ(mem.overlayBytes(), 3u);
}

TEST_F(MemoryTest, DeepChainsFlatten) {
  SymMemory mem(&img);
  std::vector<SymMemory> keepAlive;
  for (int i = 0; i < 100; ++i) {
    keepAlive.push_back(mem);  // share head, forcing a new node per write
    mem.writeByte(0x100 + (i % 4), tm.mkConst(8, static_cast<uint64_t>(i)));
  }
  EXPECT_LE(mem.chainDepth(), 33u);  // flattening kicked in
  EXPECT_EQ(mem.readByte(tm, 0x103).constValue(), 99u);
  EXPECT_EQ(mem.readByte(tm, 0x100).constValue(), 96u);
  // Old snapshots still read their own view.
  EXPECT_EQ(keepAlive[1].readByte(tm, 0x100).constValue(), 0u);
}

TEST_F(MemoryTest, NoImageMemory) {
  SymMemory mem;  // no backing image at all
  EXPECT_FALSE(mem.readByte(tm, 0).valid());
  mem.writeByte(0, tm.mkConst(8, 7));
  EXPECT_EQ(mem.readByte(tm, 0).constValue(), 7u);
}

TEST_F(MemoryTest, OverlayBytesCountsDistinctAddressesAcrossForks) {
  // The count is the overlay's contents, whatever its node layout: a
  // shared chain, a rewrite in a newer node and a rebuilt memory holding
  // the same writes all read the same value.
  SymMemory a(&img);
  a.writeByte(0x100, tm.mkConst(8, 1));
  a.writeByte(0x101, tm.mkConst(8, 2));
  SymMemory b = a;                        // fork: b's writes get a node
  b.writeByte(0x100, tm.mkConst(8, 3));   // shadows a pre-fork write
  b.writeByte(0x102, tm.mkConst(8, 4));   // a new address
  EXPECT_EQ(b.chainDepth(), 2u);
  EXPECT_EQ(a.overlayBytes(), 2u);
  EXPECT_EQ(b.overlayBytes(), 3u);
  SymMemory rebuilt(&img);
  for (const uint64_t addr : b.overlayAddresses()) {
    rebuilt.writeByte(addr, b.readByte(tm, addr));
  }
  EXPECT_EQ(rebuilt.chainDepth(), 1u);
  EXPECT_EQ(rebuilt.overlayBytes(), b.overlayBytes());
}

// ---------------------------------------------------------------------
// The executors' ownership contract (core/executor.h): the consuming
// entry updates the state it is handed in place, so only a step with
// several successors copies; the copying entries leave the caller's
// state alone and agree with the consuming one.
// ---------------------------------------------------------------------

struct EngineUnderTest {
  std::string isa;
  std::string label;
  driver::SessionOptions opt;
};

/// Both ADL engines on every shipped ISA, and the rv32e baseline.
std::vector<EngineUnderTest> allEngines() {
  std::vector<EngineUnderTest> v;
  for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
    for (const AdlEngineKind k : {AdlEngineKind::Bytecode,
                                  AdlEngineKind::Interp}) {
      driver::SessionOptions opt;
      opt.engineKind = k;
      v.push_back({isa,
                   std::string(isa) +
                       (k == AdlEngineKind::Bytecode ? "/bytecode" : "/interp"),
                   opt});
    }
  }
  driver::SessionOptions base;
  base.useBaselineEngine = true;
  v.push_back({"rv32e", "rv32e/baseline", base});
  return v;
}

/// Everything a successor holds, memory included, as text.
std::string stateKey(smt::TermManager& tm, const MachineState& s) {
  std::ostringstream o;
  o << "pc=" << s.pc << " steps=" << s.steps << " forks=" << s.forks
    << " status=" << static_cast<int>(s.status) << " regs:";
  for (const smt::TermRef r : s.regs) o << ' ' << smt::toString(r);
  o << " rf:";
  for (const smt::TermRef r : s.regfile) o << ' ' << smt::toString(r);
  o << " pcond:";
  for (const smt::TermRef c : s.pathCond) o << ' ' << smt::toString(c);
  o << " in:";
  for (const InputRecord& in : s.inputs) o << ' ' << in.name;
  o << " w:";
  for (const uint64_t w : s.witness) o << ' ' << w;
  o << " out:";
  for (const OutputRecord& r : s.outputs) {
    o << ' ' << smt::toString(r.term) << '@' << r.pc;
  }
  if (s.exitCode.valid()) o << " exit=" << smt::toString(s.exitCode);
  if (s.defect) o << " defect=" << s.defect->message;
  o << " mem:";
  for (const uint64_t addr : s.memory.overlayAddresses()) {
    o << ' ' << addr << '=' << smt::toString(s.memory.readByte(tm, addr));
  }
  o << " written=" << s.memory.overlayBytes();
  return o.str();
}

/// Run `st` one step at a time through the consuming entry to its only
/// successor; the program must not fork.
MachineState stepConsuming(Executor& exec, MachineState&& st) {
  StepOut out;
  exec.stepMany(std::move(st), out, 1);
  EXPECT_EQ(out.successors.size(), 1u);
  return std::move(out.successors.at(0));
}

TEST(StepOwnership, StoresThroughTheConsumingEntryWriteInPlace) {
  // Eight stores in a concrete loop: every one lands in the state's one
  // uniquely owned overlay node, which a copying step would have shared
  // with the caller's state, forcing a fresh node per store.
  workloads::PProgram p;
  p.array("a", std::vector<uint8_t>(8, 0));
  p.li(0, 0);
  p.li(1, 1);
  p.li(2, 8);
  p.label("loop");
  p.storeArr("a", 0, 1);
  p.add(0, 0, 1);
  p.bne(0, 2, "loop");
  p.halt(0);
  for (const EngineUnderTest& e : allEngines()) {
    auto s = driver::Session::forPortable(p, e.isa, e.opt);
    Executor& exec = s->executor();
    MachineState st = exec.initialState();
    for (int i = 0; i < 1000 && st.status == PathStatus::Running; ++i) {
      st = stepConsuming(exec, std::move(st));
      ASSERT_LE(st.memory.chainDepth(), 1u) << e.label << " step " << i;
    }
    ASSERT_EQ(st.status, PathStatus::Exited) << e.label;
    EXPECT_EQ(st.memory.chainDepth(), 1u) << e.label;
    const uint64_t a = s->image().symbol("a").value();
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(st.memory.readByte(s->termManager(), a + i).constValue(), 1u)
          << e.label << " a[" << i << "]";
    }
    EXPECT_GE(st.memory.overlayBytes(), 8u) << e.label;
  }
}

TEST(StepOwnership, CopyingEntriesLeaveTheStateAndMatchTheConsumingEntry) {
  // sort3 stores, forks on symbolic compares and checks an assertion.
  // Every state of a DFS walk is stepped through both entries (plain, and
  // with fuel for a fused run): the copying one must leave it as it was,
  // and both must yield the same successors.
  const workloads::PProgram prog = workloads::progSort(3);
  for (const EngineUnderTest& e : allEngines()) {
    auto s = driver::Session::forPortable(prog, e.isa, e.opt);
    Executor& exec = s->executor();
    smt::TermManager& tm = s->termManager();
    std::vector<MachineState> frontier{exec.initialState()};
    int steps = 0;
    for (; !frontier.empty() && steps < 4000; ++steps) {
      MachineState st = std::move(frontier.back());
      frontier.pop_back();
      const std::string before = stateKey(tm, st);
      const uint64_t fuel = steps % 2 == 0 ? 1 : 64;
      StepOut copied;
      exec.stepMany(st, copied, fuel);
      ASSERT_EQ(stateKey(tm, st), before) << e.label << " step " << steps;
      StepOut consumed;
      exec.stepMany(MachineState(st), consumed, fuel);
      ASSERT_EQ(copied.successors.size(), consumed.successors.size())
          << e.label << " at " << before;
      EXPECT_EQ(copied.retired, consumed.retired) << e.label;
      EXPECT_EQ(copied.rtlTicks, consumed.rtlTicks) << e.label;
      EXPECT_EQ(copied.fusedPcs, consumed.fusedPcs) << e.label;
      for (size_t k = 0; k < consumed.successors.size(); ++k) {
        ASSERT_EQ(stateKey(tm, copied.successors[k]),
                  stateKey(tm, consumed.successors[k]))
            << e.label << " successor " << k << " of " << before;
        if (consumed.successors[k].status == PathStatus::Running) {
          frontier.push_back(std::move(consumed.successors[k]));
        }
      }
    }
    EXPECT_TRUE(frontier.empty()) << e.label << " walk did not finish";
  }
}

TEST(StepOwnership, ForkArmsKeepTheirStoresApart) {
  // a[0] is written before a symbolic branch, a[1] differently on each
  // arm. The arms share the pre-fork overlay; stepping them in turn, each
  // must see only its own a[1], and both the pre-fork a[0].
  workloads::PProgram p;
  p.array("a", {0, 0});
  p.li(0, 0);
  p.li(1, 7);
  p.storeArr("a", 0, 1);
  p.in(2);
  p.li(3, 1);
  p.beq(2, 0, "other");
  p.li(4, 3);
  p.storeArr("a", 3, 4);
  p.halt(1);
  p.label("other");
  p.li(4, 5);
  p.storeArr("a", 3, 4);
  p.halt(2);
  for (const EngineUnderTest& e : allEngines()) {
    auto s = driver::Session::forPortable(p, e.isa, e.opt);
    Executor& exec = s->executor();
    smt::TermManager& tm = s->termManager();
    MachineState st = exec.initialState();
    StepOut fork;
    for (int i = 0; i < 1000; ++i) {
      fork.clear();
      exec.stepMany(std::move(st), fork, 1);
      ASSERT_FALSE(fork.successors.empty()) << e.label;
      if (fork.successors.size() > 1) break;
      st = std::move(fork.successors[0]);
    }
    ASSERT_EQ(fork.successors.size(), 2u) << e.label;
    std::vector<MachineState> arms = std::move(fork.successors);
    for (int i = 0; i < 1000 && (arms[0].status == PathStatus::Running ||
                                 arms[1].status == PathStatus::Running);
         ++i) {
      for (MachineState& arm : arms) {
        if (arm.status == PathStatus::Running) {
          arm = stepConsuming(exec, std::move(arm));
        }
      }
    }
    const uint64_t a = s->image().symbol("a").value();
    for (const MachineState& arm : arms) {
      ASSERT_EQ(arm.status, PathStatus::Exited) << e.label;
      const uint64_t code = arm.exitCode.constValue();
      EXPECT_EQ(arm.memory.readByte(tm, a).constValue(), 7u)
          << e.label << " exit " << code;
      EXPECT_EQ(arm.memory.readByte(tm, a + 1).constValue(),
                code == 1 ? 3u : 5u)
          << e.label << " exit " << code;
    }
    EXPECT_NE(arms[0].exitCode.constValue(), arms[1].exitCode.constValue())
        << e.label;
  }
}

}  // namespace
}  // namespace adlsym::core
