// Copyright 2026 The TrustLite Reproduction Authors.
// Unit tests for the bus and memory devices.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"

namespace trustlite {
namespace {

AccessContext Ctx(AccessKind kind = AccessKind::kRead, uint32_t ip = 0) {
  AccessContext ctx;
  ctx.curr_ip = ip;
  ctx.kind = kind;
  return ctx;
}

class MemTest : public ::testing::Test {
 protected:
  MemTest() : ram_("ram", 0x1000, 0x1000), prom_("prom", 0x4000, 0x1000) {
    bus_.Attach(&ram_);
    bus_.Attach(&prom_);
  }

  Bus bus_;
  Ram ram_;
  Prom prom_;
};

TEST_F(MemTest, WordReadWriteRoundTrip) {
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x1004, 4, 0xCAFEBABE),
            AccessResult::kOk);
  uint32_t value = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x1004, 4, &value), AccessResult::kOk);
  EXPECT_EQ(value, 0xCAFEBABEu);
}

TEST_F(MemTest, ByteAccessLittleEndian) {
  ASSERT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x1010, 4, 0x11223344),
            AccessResult::kOk);
  uint32_t b0 = 0;
  uint32_t b3 = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x1010, 1, &b0), AccessResult::kOk);
  EXPECT_EQ(bus_.Read(Ctx(), 0x1013, 1, &b3), AccessResult::kOk);
  EXPECT_EQ(b0, 0x44u);
  EXPECT_EQ(b3, 0x11u);
}

TEST_F(MemTest, MisalignedWordFaults) {
  uint32_t value = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x1001, 4, &value), AccessResult::kAlignFault);
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x1002, 4, 1),
            AccessResult::kAlignFault);
}

TEST_F(MemTest, UnmappedAddressIsBusError) {
  uint32_t value = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x9000, 4, &value), AccessResult::kBusError);
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x0, 4, 1),
            AccessResult::kBusError);
}

TEST_F(MemTest, AccessAtDeviceEndIsBusError) {
  uint32_t value = 0;
  // Last valid word is 0x1FFC; a word at 0x1FFE straddles past the end (and
  // is misaligned); a word at 0x2000 is outside.
  EXPECT_EQ(bus_.Read(Ctx(), 0x1FFC, 4, &value), AccessResult::kOk);
  EXPECT_EQ(bus_.Read(Ctx(), 0x2000, 4, &value), AccessResult::kBusError);
}

TEST_F(MemTest, PromRejectsGuestWrites) {
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x4000, 4, 1),
            AccessResult::kBusError);
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x4100, 1, 1),
            AccessResult::kBusError);
}

TEST_F(MemTest, PromHostProgrammingAndGuestRead) {
  prom_.LoadBytes(0, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});
  uint32_t value = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x4000, 4, &value), AccessResult::kOk);
  EXPECT_EQ(value, 0xEFBEADDEu);
}

TEST_F(MemTest, HostHelpers) {
  EXPECT_TRUE(bus_.HostWriteWord(0x1100, 42));
  uint32_t value = 0;
  EXPECT_TRUE(bus_.HostReadWord(0x1100, &value));
  EXPECT_EQ(value, 42u);

  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  EXPECT_TRUE(bus_.HostWriteBytes(0x1200, bytes));
  std::vector<uint8_t> readback;
  EXPECT_TRUE(bus_.HostReadBytes(0x1200, 5, &readback));
  EXPECT_EQ(readback, bytes);

  EXPECT_FALSE(bus_.HostReadWord(0x9000, &value));
  EXPECT_FALSE(bus_.HostWriteWord(0x9000, 0));
}

TEST_F(MemTest, FindDevice) {
  EXPECT_EQ(bus_.FindDevice(0x1000), &ram_);
  EXPECT_EQ(bus_.FindDevice(0x1FFF), &ram_);
  EXPECT_EQ(bus_.FindDevice(0x4000), &prom_);
  EXPECT_EQ(bus_.FindDevice(0x3000), nullptr);
}

TEST_F(MemTest, RamFillAndReadBytes) {
  ram_.Fill(0xAA);
  const std::span<const uint8_t> bytes = ram_.data().subspan(0x10, 4);
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            (std::vector<uint8_t>{0xAA, 0xAA, 0xAA, 0xAA}));
}

TEST_F(MemTest, LoadBytesPastTheEndFailsAndWritesNothing) {
  const std::vector<uint8_t> two = {0x11, 0x22};
  // One byte past the end, and an end that wraps 32 bits.
  for (const uint32_t offset : {ram_.size() - 1, 0xFFFF'FFFFu}) {
    const Status status = ram_.LoadBytes(offset, two);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << offset;
  }
  for (const uint8_t byte : ram_.data()) {
    ASSERT_EQ(byte, 0u);
  }
  for (const uint8_t mark : ram_.write_map()) {
    ASSERT_EQ(mark, 0u);
  }
  // The last two bytes fit exactly.
  ASSERT_TRUE(ram_.LoadBytes(ram_.size() - 2, two).ok());
  EXPECT_EQ(ram_.data()[ram_.size() - 1], 0x22u);
}

// --- Write map (DESIGN.md §15, "Node memory: pages on demand") -----------

// Three whole pages and a short fourth.
constexpr uint32_t kMapRamSize = 3 * kRamPageSize + 100;

std::vector<uint8_t> Marks(const Ram& ram) {
  return std::vector<uint8_t>(ram.write_map().begin(), ram.write_map().end());
}

TEST(WriteMapTest, WritesAndLoadsMarkExactlyTheirPages) {
  Ram ram("ram", 0x10000, kMapRamSize);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{0, 0, 0, 0}));
  ASSERT_EQ(ram.Write(kRamPageSize + 8, 4, 0xCAFE), AccessResult::kOk);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{0, 1, 0, 0}));
  // A byte store into the short last page.
  ASSERT_EQ(ram.Write(kMapRamSize - 1, 1, 0x7F), AccessResult::kOk);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{0, 1, 0, 1}));
  // A load that straddles pages 0 and 1 marks both; one that ends exactly
  // at a page boundary marks no page after it.
  Ram loaded("loaded", 0x10000, kMapRamSize);
  ASSERT_TRUE(
      loaded.LoadBytes(kRamPageSize - 2, std::vector<uint8_t>{1, 2, 3, 4})
          .ok());
  EXPECT_EQ(Marks(loaded), (std::vector<uint8_t>{1, 1, 0, 0}));
  ASSERT_TRUE(loaded
                  .LoadBytes(3 * kRamPageSize - 4,
                             std::vector<uint8_t>{5, 6, 7, 8})
                  .ok());
  EXPECT_EQ(Marks(loaded), (std::vector<uint8_t>{1, 1, 1, 0}));
  // An empty load marks nothing.
  Ram empty("empty", 0x10000, kMapRamSize);
  ASSERT_TRUE(empty.LoadBytes(kRamPageSize, {}).ok());
  EXPECT_EQ(Marks(empty), (std::vector<uint8_t>{0, 0, 0, 0}));
}

TEST(WriteMapTest, FillMarksEveryPageAndFillZeroKeepsTheMarks) {
  Ram ram("ram", 0x10000, kMapRamSize);
  ram.Fill(0x5A);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{1, 1, 1, 1}));
  for (const uint8_t byte : ram.data()) {
    ASSERT_EQ(byte, 0x5Au);
  }
  ram.Fill(0);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{1, 1, 1, 1}));
  for (const uint8_t byte : ram.data()) {
    ASSERT_EQ(byte, 0u);
  }

  // Fill(0) zeroes a marked page and leaves the unmarked ones alone.
  Ram sparse("sparse", 0x10000, kMapRamSize);
  ASSERT_EQ(sparse.Write(2 * kRamPageSize + 4, 4, 0xFFFF'FFFFu),
            AccessResult::kOk);
  sparse.Fill(0);
  EXPECT_EQ(Marks(sparse), (std::vector<uint8_t>{0, 0, 1, 0}));
  EXPECT_EQ(sparse.data()[2 * kRamPageSize + 4], 0u);
}

TEST(WriteMapTest, MutableSpanMarksItsWholeSpanAndOutlivesFillZero) {
  Ram ram("ram", 0x10000, kMapRamSize);
  uint8_t* span = ram.HostMutableSpan(kRamPageSize - 4, kRamPageSize + 8);
  ASSERT_NE(span, nullptr);
  // Marked when handed out, before anything is stored through it.
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{1, 1, 1, 0}));
  // The holder may store anywhere in the span, also after a Fill(0).
  ram.Fill(0);
  span[kRamPageSize + 7] = 0x42;
  EXPECT_EQ(ram.data()[2 * kRamPageSize + 3], 0x42u);
  EXPECT_EQ(Marks(ram), (std::vector<uint8_t>{1, 1, 1, 0}));

  // A span that does not fit is refused and marks nothing; PROM hands out
  // no mutable span at all.
  Ram other("other", 0x10000, kMapRamSize);
  EXPECT_EQ(other.HostMutableSpan(3 * kRamPageSize, 101), nullptr);
  EXPECT_EQ(Marks(other), (std::vector<uint8_t>{0, 0, 0, 0}));
  Prom prom("prom", 0x10000, kMapRamSize);
  EXPECT_EQ(prom.HostMutableSpan(0, 4), nullptr);
  EXPECT_EQ(Marks(prom), (std::vector<uint8_t>{0, 0, 0, 0}));
}

// A protection unit that denies everything, to verify check placement.
class DenyAll : public ProtectionUnit {
 public:
  AccessResult Check(const AccessContext&, uint32_t, uint32_t) override {
    ++checks;
    return AccessResult::kProtFault;
  }
  int checks = 0;
};

TEST_F(MemTest, ProtectionUnitConsultedBeforeDevice) {
  DenyAll deny;
  bus_.SetProtectionUnit(&deny);
  uint32_t value = 0;
  EXPECT_EQ(bus_.Read(Ctx(), 0x1000, 4, &value), AccessResult::kProtFault);
  EXPECT_EQ(bus_.Write(Ctx(AccessKind::kWrite), 0x1000, 4, 1),
            AccessResult::kProtFault);
  EXPECT_EQ(deny.checks, 2);
  // Host accesses bypass protection.
  EXPECT_TRUE(bus_.HostWriteWord(0x1000, 7));
  EXPECT_EQ(deny.checks, 2);
  // Engine-port accesses bypass protection as well.
  AccessContext engine;
  engine.engine = true;
  engine.kind = AccessKind::kWrite;
  EXPECT_EQ(bus_.Write(engine, 0x1000, 4, 9), AccessResult::kOk);
  EXPECT_EQ(deny.checks, 2);
}

TEST(MemLayoutTest, RegionsDoNotOverlap) {
  EXPECT_LE(kPromBase + kPromSize, kSramBase);
  EXPECT_LE(kSramBase + kSramSize, kDramBase);
  EXPECT_LT(kDramBase + kDramSize, kMmioBase);
  EXPECT_GE(kTrustletTableBase, kSramBase);
  EXPECT_LT(kTrustletTableBase, kSramBase + kSramSize);
  // MMIO blocks are distinct, kMmioBlockSize-aligned windows.
  const uint32_t blocks[] = {kSysCtlBase, kMpuMmioBase, kTimerBase,
                             kUartBase,   kShaBase,     kTrngBase,
                             kGpioBase,   kSancusMmioBase, kDmaBase};
  for (size_t i = 0; i < std::size(blocks); ++i) {
    EXPECT_EQ(blocks[i] % kMmioBlockSize, 0u) << i;
    for (size_t j = i + 1; j < std::size(blocks); ++j) {
      EXPECT_NE(blocks[i], blocks[j]) << i << "," << j;
    }
  }
}

TEST(BusTopOfMemoryTest, ByteRunsStopAtTheTopOfTheAddressSpace) {
  // A device whose range ends exactly at 2^32: runs inside it work, and
  // runs that would extend past 0xFFFFFFFF fail instead of wrapping around
  // to address 0 (the run arithmetic is 64-bit).
  Bus bus;
  Ram top("top", 0xFFFF'F000u, 0x1000);
  bus.Attach(&top);
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(bus.HostWriteBytes(0xFFFF'FFF8u, bytes));
  std::vector<uint8_t> readback;
  EXPECT_TRUE(bus.HostReadBytes(0xFFFF'FFF8u, 8, &readback));
  EXPECT_EQ(readback, bytes);
  EXPECT_FALSE(bus.HostWriteBytes(0xFFFF'FFFCu, bytes));
  EXPECT_FALSE(bus.HostReadBytes(0xFFFF'FFFCu, 8, &readback));
  // The word straddling nothing at the very top is still addressable.
  EXPECT_TRUE(bus.HostWriteWord(0xFFFF'FFFCu, 0xA5A5'A5A5u));
  uint32_t word = 0;
  EXPECT_TRUE(bus.HostReadWord(0xFFFF'FFFCu, &word));
  EXPECT_EQ(word, 0xA5A5'A5A5u);
}

}  // namespace
}  // namespace trustlite
