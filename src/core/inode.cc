#include "core/inode.h"

#include <cstring>

namespace simurgh::core {

std::uint64_t ExtentMap::find(std::uint64_t file_block) const {
  std::uint64_t best = 0;
  auto probe = [&](const Extent& e) {
    if (e.n_blocks != 0 && file_block >= e.file_block &&
        file_block < e.file_block + e.n_blocks)
      best = e.dev_off + (file_block - e.file_block) * alloc::kBlockSize;
  };
  for (unsigned i = 0; i < kInlineExtents; ++i) probe(ino_.extents[i]);
  if (best != 0) return best;
  nvmm::pptr<ExtentBlock> b = ino_.ext_spill.load();
  while (b && best == 0) {
    const ExtentBlock* eb = b.in(dev_);
    const std::uint64_t n = eb->n;
    for (std::uint64_t i = 0; i < n; ++i) probe(eb->extents[i]);
    b = eb->next;
  }
  return best;
}

Status ExtentMap::append(std::uint64_t file_block, std::uint64_t dev_off,
                         std::uint64_t n_blocks) {
  // Try to merge with the last populated extent (the common append shape).
  Extent* last = nullptr;
  for (unsigned i = 0; i < kInlineExtents; ++i)
    if (ino_.extents[i].n_blocks != 0) last = &ino_.extents[i];
  ExtentBlock* last_spill = nullptr;
  nvmm::pptr<ExtentBlock> b = ino_.ext_spill.load();
  while (b) {
    last_spill = b.in(dev_);
    if (last_spill->n > 0) last = &last_spill->extents[last_spill->n - 1];
    b = last_spill->next;
  }
  if (last != nullptr && last->file_block + last->n_blocks == file_block &&
      last->dev_off + last->n_blocks * alloc::kBlockSize == dev_off) {
    last->n_blocks += n_blocks;
    nvmm::persist_obj(*last);
    return Status::ok();
  }
  // New extent: first free inline slot, then the spill chain.
  for (unsigned i = 0; i < kInlineExtents; ++i) {
    if (ino_.extents[i].n_blocks == 0) {
      ino_.extents[i] = Extent{file_block, dev_off, n_blocks};
      nvmm::persist_obj(ino_.extents[i]);
      return Status::ok();
    }
  }
  if (last_spill != nullptr && last_spill->n < ExtentBlock::kCapacity) {
    last_spill->extents[last_spill->n] = Extent{file_block, dev_off, n_blocks};
    nvmm::persist_obj(last_spill->extents[last_spill->n]);
    // Publish the count after the payload (readers see fully written
    // extents only).
    ++last_spill->n;
    nvmm::persist_obj(last_spill->n);
    return Status::ok();
  }
  // Grow the spill chain.
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t eb_off, pool_.alloc());
  auto* eb = reinterpret_cast<ExtentBlock*>(dev_.at(eb_off));
  new (eb) ExtentBlock();
  eb->extents[0] = Extent{file_block, dev_off, n_blocks};
  eb->n = 1;
  nvmm::persist(eb, sizeof(ExtentBlock));
  nvmm::fence();
  pool_.commit(eb_off);
  if (last_spill != nullptr) {
    last_spill->next = nvmm::pptr<ExtentBlock>(eb_off);
    nvmm::persist_obj(last_spill->next);
  } else {
    ino_.ext_spill.store(nvmm::pptr<ExtentBlock>(eb_off));
    nvmm::persist_obj(ino_.ext_spill);
  }
  nvmm::fence();
  return Status::ok();
}

void ExtentMap::free_spill_chain() {
  nvmm::pptr<ExtentBlock> b = ino_.ext_spill.load();
  ino_.ext_spill.store(nvmm::pptr<ExtentBlock>());
  nvmm::persist_obj(ino_.ext_spill);
  while (b) {
    const nvmm::pptr<ExtentBlock> next = b.in(dev_)->next;
    pool_.free(b.raw());
    b = next;
  }
}

}  // namespace simurgh::core
