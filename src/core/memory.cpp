#include "core/memory.h"

#include <algorithm>

namespace adlsym::core {

smt::TermRef SymMemory::readByte(smt::TermManager& tm, uint64_t addr) const {
  for (const Node* n = head_.get(); n != nullptr; n = n->parent.get()) {
    if (auto it = n->writes.find(addr); it != n->writes.end()) return it->second;
  }
  if (image_ != nullptr) {
    if (auto b = image_->byteAt(addr)) return tm.mkConst(8, *b);
  }
  return smt::TermRef();  // unmapped
}

void SymMemory::writeByte(uint64_t addr, smt::TermRef value) {
  if (head_ == nullptr || head_.use_count() > 1) {
    auto node = std::make_shared<Node>();
    node->parent = head_;
    head_ = std::move(node);
    flattenIfDeep();
  }
  auto [it, fresh] = head_->writes.try_emplace(addr, value);
  if (!fresh) {
    it->second = value;
    return;
  }
  for (const Node* n = head_->parent.get(); n != nullptr; n = n->parent.get()) {
    if (n->writes.count(addr) != 0) return;  // shadows an older write
  }
  ++written_;
}

size_t SymMemory::chainDepth() const {
  size_t n = 0;
  for (const Node* p = head_.get(); p != nullptr; p = p->parent.get()) ++n;
  return n;
}

std::vector<uint64_t> SymMemory::overlayAddresses() const {
  std::vector<uint64_t> out;
  for (const Node* p = head_.get(); p != nullptr; p = p->parent.get()) {
    for (const auto& [addr, v] : p->writes) out.push_back(addr);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void SymMemory::flattenIfDeep() {
  constexpr size_t kMaxChain = 32;
  if (chainDepth() <= kMaxChain) return;
  // Merge the whole chain into the (uniquely owned) head node. Entries in
  // newer nodes win, so we only insert keys not yet present.
  for (const Node* p = head_->parent.get(); p != nullptr; p = p->parent.get()) {
    for (const auto& [addr, v] : p->writes) head_->writes.emplace(addr, v);
  }
  head_->parent = nullptr;
}

}  // namespace adlsym::core
