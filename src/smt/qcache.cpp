#include "smt/qcache.h"

#include <algorithm>
#include <cstring>

#include "smt/solver.h"
#include "support/json.h"

namespace adlsym::smt {

namespace {

void appendNum(std::string& out, uint64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, buf + sizeof buf);
}

void appendRef(std::string& out, TermId id,
               const std::unordered_map<TermId, size_t>& memo) {
  if (id == kInvalidTerm) {
    out += '-';
    return;
  }
  appendNum(out, memo.at(id));
}

enum class VarMode : uint8_t {
  Blind,  // "V<w>:?"       — name-independent sort key
  Named,  // "V<w>:<name>"  — within-pool deterministic tie-break
  Slot,   // "V<w>:@<slot>" — α-renamed final key
};

/// Append post-order descriptors of every node under `root` not already in
/// `memo`; returns root's local index. Local indices are emission order,
/// so the serialization is DAG-shared: a subterm reachable twice is
/// defined once and referenced by index.
size_t serializeTerm(const TermManager& tm, TermId root, VarMode mode,
                     std::unordered_map<TermId, size_t>& memo,
                     std::string& out,
                     std::unordered_map<std::string, size_t>* slotByName,
                     std::vector<TermRef>* slotVars, TermManager* mgr) {
  std::vector<TermId> stack{root};
  while (!stack.empty()) {
    const TermId id = stack.back();
    if (memo.count(id) != 0) {
      stack.pop_back();
      continue;
    }
    const TermNode& n = tm.node(id);
    const TermId ops[3] = {n.a, n.b, n.c};
    bool ready = true;
    for (const TermId o : ops) {
      if (o != kInvalidTerm && memo.count(o) == 0) {
        stack.push_back(o);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    switch (n.kind) {
      case Kind::Const:
        out += 'C';
        appendNum(out, n.width);
        out += ':';
        appendNum(out, n.aux);
        break;
      case Kind::Var:
        out += 'V';
        appendNum(out, n.width);
        out += ':';
        switch (mode) {
          case VarMode::Blind:
            out += '?';
            break;
          case VarMode::Named:
            out += tm.varName(id);
            break;
          case VarMode::Slot: {
            const std::string& name = tm.varName(id);
            auto [it, inserted] =
                slotByName->try_emplace(name, slotByName->size());
            if (inserted && slotVars != nullptr) {
              slotVars->push_back(TermRef(mgr, id));
            }
            out += '@';
            appendNum(out, it->second);
            break;
          }
        }
        break;
      default:
        out += 'O';
        appendNum(out, static_cast<uint64_t>(n.kind));
        out += ':';
        appendNum(out, n.width);
        out += ':';
        appendRef(out, n.a, memo);
        out += ',';
        appendRef(out, n.b, memo);
        out += ',';
        appendRef(out, n.c, memo);
        out += ':';
        appendNum(out, n.aux);
        break;
    }
    out += ';';
    memo.emplace(id, memo.size());
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
  std::vector<TermRef> terms;
  terms.reserve(permanent.size() + assumptions.size());
  for (const TermRef t : permanent) {
    if (t.valid() && !t.isTrue()) terms.push_back(t);
  }
  for (const TermRef t : assumptions) {
    if (t.valid() && !t.isTrue()) terms.push_back(t);
  }
  if (terms.empty()) return std::string();
  TermManager* mgr = terms.front().manager();
  {
    std::vector<TermId> ids;
    ids.reserve(terms.size());
    for (const TermRef t : terms) ids.push_back(t.id());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    terms.clear();
    for (const TermId id : ids) terms.push_back(TermRef(mgr, id));
  }

  // Pass 1: per-constraint sort keys. Primary key is name-*blind* so the
  // order (and hence the α-renaming below) is invariant under variable
  // renamings that don't collide structurally; the name-aware secondary
  // key keeps the order deterministic within one pool.
  struct Item {
    std::string blind;
    std::string named;
    TermId id;
  };
  std::vector<Item> items;
  items.reserve(terms.size());
  for (const TermRef t : terms) {
    Item it;
    it.id = t.id();
    std::unordered_map<TermId, size_t> memo;
    serializeTerm(*mgr, t.id(), VarMode::Blind, memo, it.blind, nullptr,
                  nullptr, nullptr);
    memo.clear();
    serializeTerm(*mgr, t.id(), VarMode::Named, memo, it.named, nullptr,
                  nullptr, nullptr);
    items.push_back(std::move(it));
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.blind != b.blind) return a.blind < b.blind;
    return a.named < b.named;
  });

  // Pass 2: one global DAG walk over the sorted set, variables α-renamed
  // to dense slots in first-occurrence order.
  std::string key;
  std::unordered_map<TermId, size_t> memo;
  std::unordered_map<std::string, size_t> slotByName;
  for (const Item& it : items) {
    const size_t root = serializeTerm(*mgr, it.id, VarMode::Slot, memo, key,
                                      &slotByName, slotVars, mgr);
    key += 'R';
    appendNum(key, root);
    key += ';';
  }
  return key;
}

std::string QueryCache::localKey(const std::vector<TermRef>& assumptions) {
  std::vector<TermId> ids;
  ids.reserve(assumptions.size());
  for (const TermRef t : assumptions) ids.push_back(t.id());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::string key(ids.size() * sizeof(TermId), '\0');
  if (!ids.empty()) std::memcpy(key.data(), ids.data(), key.size());
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
                         std::vector<uint64_t> model, QueryCost cost,
                         uint8_t preTag, bool hasModel) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.try_emplace(key).first;
  Outcome& e = it->second;
  if (!e.hit) fifo_.push_back(&it->first);
  e.hit = true;
  e.result = result;
  e.model = std::move(model);
  e.cost = cost;
  e.preTag = preTag;
  e.hasModel = hasModel;
  if (capacity_ != 0) {
    while (fifo_.size() > capacity_) {
      map_.erase(map_.find(*fifo_.front()));
      fifo_.pop_front();
      ++stats_.evictions;
    }
  }
  cv_.notify_all();
}

void QueryCache::backfillModel(const std::string& key,
                               std::vector<uint64_t> model) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.hit || it->second.hasModel ||
      it->second.result != CheckResult::Sat) {
    return;
  }
  it->second.model = std::move(model);
  it->second.hasModel = true;
}

void QueryCache::abandon(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && !it->second.hit) map_.erase(it);
  cv_.notify_all();
}

void QueryCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  fifo_.clear();
  map_.clear();
}

void QueryCache::writeCkptJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const std::string*> keys;
  keys.reserve(map_.size());
  for (const auto& [key, e] : map_) {
    if (e.hit) keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w.beginObject();
  w.kv("hits", stats_.hits);
  w.kv("misses", stats_.misses);
  w.kv("evictions", stats_.evictions);
  w.key("entries").beginArray();
  for (const std::string* key : keys) {
    const Outcome& e = map_.at(*key);
    w.beginObject();
    w.kv("k", std::string_view(*key));
    w.kv("r", e.result == CheckResult::Sat ? "sat" : "unsat");
    w.key("m").beginArray();
    for (const uint64_t v : e.model) w.value(v);
    w.endArray();
    w.key("c").beginArray();
    w.value(e.cost.terms).value(e.cost.gates).value(e.cost.conflicts);
    w.endArray();
    w.kv("hm", e.hasModel);
    w.kv("p", static_cast<uint64_t>(e.preTag));
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void QueryCache::restoreFromCkpt(const json::Value& v) {
  const auto num = [](const json::Value& f, const char* what) -> uint64_t {
    if (!f.isU64()) {
      throw InputError(std::string("qcache section: '") + what +
                       "' is not a non-negative integer");
    }
    return f.asU64();
  };
  const auto u64 = [&](const char* name) -> uint64_t {
    const json::Value* f = v.find(name);
    if (f == nullptr) {
      throw InputError(std::string("qcache section: missing '") + name + "'");
    }
    return num(*f, name);
  };
  const json::Value* entries = v.find("entries");
  if (entries == nullptr || !entries->isArray()) {
    throw InputError("qcache section: missing 'entries' array");
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.hits = u64("hits");
  stats_.misses = u64("misses");
  stats_.evictions = u64("evictions");
  for (const json::Value& ev : entries->array) {
    const json::Value* key = ev.find("k");
    const json::Value* result = ev.find("r");
    const json::Value* model = ev.find("m");
    const json::Value* cost = ev.find("c");
    if (key == nullptr || !key->isString() || result == nullptr ||
        model == nullptr || !model->isArray() || cost == nullptr ||
        !cost->isArray() || cost->array.size() != 3) {
      throw InputError("qcache section: malformed entry");
    }
    Outcome e;
    e.hit = true;
    if (result->str == "sat") {
      e.result = CheckResult::Sat;
    } else if (result->str == "unsat") {
      e.result = CheckResult::Unsat;
    } else {
      throw InputError("qcache section: bad result '" + result->str + "'");
    }
    e.model.reserve(model->array.size());
    for (const json::Value& m : model->array) e.model.push_back(num(m, "m"));
    e.cost.terms = num(cost->array[0], "c");
    e.cost.gates = num(cost->array[1], "c");
    e.cost.conflicts = num(cost->array[2], "c");
    if (const json::Value* hm = ev.find("hm")) {
      if (!hm->isBool()) throw InputError("qcache section: 'hm' is not a boolean");
      e.hasModel = hm->boolean;
    }
    if (const json::Value* p = ev.find("p")) {
      const uint64_t tag = num(*p, "p");
      if (tag > 3) {
        throw InputError("qcache section: 'p' is " + std::to_string(tag) +
                         ", not a prefilter tag (0-3)");
      }
      e.preTag = static_cast<uint8_t>(tag);
    }
    auto [it, inserted] = map_.emplace(key->str, std::move(e));
    if (inserted) fifo_.push_back(&it->first);
  }
  cv_.notify_all();
}

QueryCache::Stats QueryCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = fifo_.size();
  s.capacity = capacity_;
  return s;
}

void QueryCache::Stats::writeJson(json::Writer& w) const {
  w.beginObject();
  w.kv("enabled", true);
  w.kv("capacity", static_cast<uint64_t>(capacity));
  w.kv("entries", static_cast<uint64_t>(entries));
  w.kv("hits", hits);
  w.kv("misses", misses);
  w.kv("evictions", evictions);
  w.kv("hit_rate", hitRate());
  w.endObject();
}

}  // namespace adlsym::smt
