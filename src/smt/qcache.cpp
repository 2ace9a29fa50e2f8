#include "smt/qcache.h"

#include <algorithm>
#include <charconv>

#include "smt/termio.h"

namespace adlsym::smt {

namespace {

/// Append the descriptors (smt/termio) of every node under `root` not
/// already in `memo`, in post-order; returns root's local index. Local
/// indices are emission order, so the serialization is DAG-shared: a
/// subterm reachable twice is defined once and referenced by index.
/// `varText(id)` renders a variable.
template <class VarText>
TermId serializeTerm(const TermManager& tm, TermId root,
                     std::unordered_map<TermId, TermId>& memo,
                     std::string& out, const VarText& varText) {
  const auto local = [&](TermId o) {
    return o == kInvalidTerm ? kInvalidTerm : memo.at(o);
  };
  std::vector<TermId> stack{root};
  while (!stack.empty()) {
    const TermId id = stack.back();
    if (memo.count(id) != 0) {
      stack.pop_back();
      continue;
    }
    const TermNode& n = tm.node(id);
    bool ready = true;
    for (const TermId o : {n.a, n.b, n.c}) {
      if (o != kInvalidTerm && memo.count(o) == 0) {
        stack.push_back(o);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    appendDescriptor(out, n, local(n.a), local(n.b), local(n.c),
                     n.kind == Kind::Var ? varText(id) : std::string_view());
    memo.emplace(id, static_cast<TermId>(memo.size()));
  }
  return memo.at(root);
}

}  // namespace

std::string QueryCache::canonicalKey(const std::vector<TermRef>& permanent,
                                     const std::vector<TermRef>& assumptions,
                                     std::vector<TermRef>* slotVars) {
  if (slotVars != nullptr) slotVars->clear();
  // The query is the *set* permanent ∪ assumptions; order and duplicates
  // don't affect satisfiability. Within one pool, structural equality is
  // id equality, so de-duplicating ids de-duplicates structure.
  std::vector<TermId> ids;
  ids.reserve(permanent.size() + assumptions.size());
  TermManager* mgr = nullptr;
  for (const auto* set : {&permanent, &assumptions}) {
    for (const TermRef t : *set) {
      if (!t.valid() || t.isTrue()) continue;
      ids.push_back(t.id());
      mgr = t.manager();
    }
  }
  if (ids.empty()) return std::string();
  const TermManager& tm = *mgr;

  // Order by blind hash, which is invariant under variable renamings, so
  // the α-renaming below is too. Constraints whose blind hashes tie (α-
  // variants such as x<y and y<z) are ordered by their named
  // serialization, which is the same in every pool; the pool-local id
  // only brings duplicates together.
  const auto blind = [&](TermId id) { return tm.node(id).blind; };
  std::sort(ids.begin(), ids.end(), [&](TermId x, TermId y) {
    return blind(x) != blind(y) ? blind(x) < blind(y) : x < y;
  });
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto name = [&](TermId id) -> std::string_view {
    return tm.varName(id);
  };
  std::vector<std::pair<std::string, TermId>> tied;
  std::unordered_map<TermId, TermId> memo;
  for (auto run = ids.begin(); run != ids.end();) {
    const auto end = std::find_if(
        run, ids.end(), [&](TermId id) { return blind(id) != blind(*run); });
    if (end - run > 1) {
      tied.clear();
      for (auto it = run; it != end; ++it) {
        memo.clear();
        tied.emplace_back(std::string(), *it);
        serializeTerm(tm, *it, memo, tied.back().first, name);
      }
      std::sort(tied.begin(), tied.end());
      for (const auto& [named, id] : tied) *run++ = id;
    }
    run = end;
  }

  // One global DAG walk over the ordered set, variables α-renamed to
  // dense slots "@<n>" in first-occurrence order.
  std::string key;
  memo.clear();
  std::unordered_map<TermId, uint64_t> slotOf;
  char text[24] = {'@'};
  const auto slot = [&](TermId id) -> std::string_view {
    const auto [it, inserted] = slotOf.try_emplace(id, slotOf.size());
    if (inserted && slotVars != nullptr) slotVars->push_back(TermRef(mgr, id));
    const auto res = std::to_chars(text + 1, text + sizeof text, it->second);
    return std::string_view(text, static_cast<size_t>(res.ptr - text));
  };
  for (const TermId id : ids) {
    const TermId root = serializeTerm(tm, id, memo, key, slot);
    key += 'R';
    key += std::to_string(root);
    key += ';';
  }
  return key;
}

QueryCache::Outcome QueryCache::acquire(const std::string& key) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_.emplace(key, Outcome{});  // in-flight marker; caller owns
      ++stats_.misses;
      return Outcome{};
    }
    if (it->second.hit) {
      ++stats_.hits;
      return it->second;
    }
    // In flight on another thread: wait for publish()/abandon(), then
    // re-examine (an abandoned key makes this caller the next owner).
    ++stats_.inflightWaits;
    cv_.wait(lk, [&] {
      auto cur = map_.find(key);
      return cur == map_.end() || cur->second.hit;
    });
  }
}

void QueryCache::publish(const std::string& key, CheckResult result,
                         std::vector<uint64_t> model, QueryCost cost) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.try_emplace(key).first;
  Outcome& e = it->second;
  if (!e.hit) fifo_.push_back(&it->first);
  e.hit = true;
  e.result = result;
  e.model = std::move(model);
  e.cost = cost;
  if (capacity_ != 0) {
    while (fifo_.size() > capacity_) {
      map_.erase(map_.find(*fifo_.front()));
      fifo_.pop_front();
      ++stats_.evictions;
    }
  }
  cv_.notify_all();
}

void QueryCache::abandon(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && !it->second.hit) map_.erase(it);
  cv_.notify_all();
}

QueryCache::Stats QueryCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = fifo_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace adlsym::smt
