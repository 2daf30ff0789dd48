#include "core/object_base.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace verso {

bool SharedApps::result_index_enabled_ = true;

void IndexedApps::BuildIndex() const {
  // Nodes are immutable while shared, but the lazy build itself is a
  // const-path mutation: serialize concurrent
  // first probes of the same node. One process-wide mutex (not one per
  // node) — builds are rare, nodes are many.
  static std::mutex build_mu;
  std::lock_guard<std::mutex> lock(build_mu);
  if (index_built_.load(std::memory_order_relaxed)) return;
  ResultIndex built;
  built.reserve(apps_.size());
  for (uint32_t i = 0; i < apps_.size(); ++i) {
    built.emplace_back(apps_[i].result, i);
  }
  // Lexicographic: results ascending, offsets ascending per result —
  // lookups are one binary search, enumeration stays in scan order.
  std::sort(built.begin(), built.end());
  by_result_ = std::move(built);
  index_built_.store(true, std::memory_order_release);
}

VersionState::MethodList::iterator VersionState::LowerBound(MethodId method) {
  return std::lower_bound(
      methods_.begin(), methods_.end(), method,
      [](const MethodEntry& e, MethodId m) { return e.first < m; });
}

VersionState::MethodList::const_iterator VersionState::LowerBound(
    MethodId method) const {
  return std::lower_bound(
      methods_.begin(), methods_.end(), method,
      [](const MethodEntry& e, MethodId m) { return e.first < m; });
}

bool VersionState::Insert(MethodId method, GroundApp app) {
  auto mit = LowerBound(method);
  if (mit == methods_.end() || mit->first != method) {
    mit = methods_.emplace(mit, method, SharedApps());
  }
  // Membership check on the const view first: a duplicate insert must not
  // detach shared storage.
  const std::vector<GroundApp>& current = mit->second.get();
  auto it = std::lower_bound(current.begin(), current.end(), app);
  if (it != current.end() && *it == app) return false;
  const size_t pos = static_cast<size_t>(it - current.begin());
  std::vector<GroundApp>& apps = mit->second.Mutable();
  apps.insert(apps.begin() + pos, std::move(app));
  ++fact_count_;
  return true;
}

bool VersionState::Erase(MethodId method, const GroundApp& app) {
  auto mit = LowerBound(method);
  if (mit == methods_.end() || mit->first != method) return false;
  const std::vector<GroundApp>& current = mit->second.get();
  auto it = std::lower_bound(current.begin(), current.end(), app);
  if (it == current.end() || !(*it == app)) return false;
  const size_t pos = static_cast<size_t>(it - current.begin());
  std::vector<GroundApp>& apps = mit->second.Mutable();
  apps.erase(apps.begin() + pos);
  --fact_count_;
  if (apps.empty()) methods_.erase(mit);
  return true;
}

bool VersionState::Contains(MethodId method, const GroundApp& app) const {
  const std::vector<GroundApp>* apps = Find(method);
  if (apps == nullptr) return false;
  auto it = std::lower_bound(apps->begin(), apps->end(), app);
  return it != apps->end() && *it == app;
}

const std::vector<GroundApp>* VersionState::Find(MethodId method) const {
  const SharedApps* apps = FindShared(method);
  return apps == nullptr ? nullptr : &apps->get();
}

const SharedApps* VersionState::FindShared(MethodId method) const {
  auto mit = LowerBound(method);
  return mit == methods_.end() || mit->first != method ? nullptr
                                                       : &mit->second;
}

bool VersionState::OnlyExists(MethodId exists_method) const {
  if (methods_.empty()) return true;
  return methods_.size() == 1 && methods_.front().first == exists_method;
}

ObjectBase::MethodIndex& ObjectBase::MutableIndex() {
  if (method_index_.use_count() > 1) {
    method_index_ = std::make_shared<MethodIndex>(*method_index_);
  }
  return *method_index_;
}

bool ObjectBase::Insert(Vid version, MethodId method, GroundApp app) {
  StatePtr& slot = states_[version];
  if (slot == nullptr) {
    slot = std::make_shared<VersionState>();
  } else if (slot.use_count() > 1) {
    // Shared state: check membership before detaching so a duplicate
    // insert never clones. The unique-owner path skips this pre-check —
    // VersionState::Insert does its own duplicate test in one search.
    if (slot->Contains(method, app)) return false;
    slot = std::make_shared<VersionState>(*slot);
  }
  if (!slot->Insert(method, std::move(app))) return false;
  ++fact_count_;
  IndexAdd(version, method, 1);
  return true;
}

bool ObjectBase::Erase(Vid version, MethodId method, const GroundApp& app) {
  auto it = states_.find(version);
  if (it == states_.end()) return false;
  StatePtr& slot = it->second;
  if (slot.use_count() > 1) {
    if (!slot->Contains(method, app)) return false;  // miss: keep sharing
    slot = std::make_shared<VersionState>(*slot);
  }
  if (!slot->Erase(method, app)) return false;
  --fact_count_;
  IndexRemove(version, method, 1);
  if (slot->empty()) states_.erase(it);
  return true;
}

bool ObjectBase::Contains(Vid version, MethodId method,
                          const GroundApp& app) const {
  auto it = states_.find(version);
  return it != states_.end() && it->second->Contains(method, app);
}

const VersionState* ObjectBase::StateOf(Vid version) const {
  auto it = states_.find(version);
  return it == states_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const VersionState> ObjectBase::SharedStateOf(
    Vid version) const {
  auto it = states_.find(version);
  return it == states_.end() ? nullptr : it->second;
}

bool ObjectBase::ReplaceVersion(Vid version, VersionState state,
                                DeltaLog* diff) {
  return InstallVersion(
      version, std::make_shared<VersionState>(std::move(state)), diff);
}

bool ObjectBase::AdoptVersion(Vid version,
                              std::shared_ptr<const VersionState> state,
                              DeltaLog* diff) {
  if (state == nullptr) state = std::make_shared<VersionState>();
  // Dropping const is safe under the COW discipline: every mutator
  // detaches while the handle is shared, and once this base is the sole
  // owner the state is genuinely its to write.
  return InstallVersion(
      version, std::const_pointer_cast<VersionState>(std::move(state)), diff);
}

bool ObjectBase::InstallVersion(Vid version, StatePtr incoming,
                                DeltaLog* diff) {
  auto it = states_.find(version);
  if (it == states_.end()) {
    if (incoming->empty()) return false;
    // New version: index all methods; every fact is an addition.
    for (const auto& [method, apps] : incoming->methods()) {
      IndexAdd(version, method, static_cast<uint32_t>(apps.size()));
      if (diff != nullptr) {
        for (const GroundApp& app : apps) {
          diff->push_back({version, method, app, /*added=*/true});
        }
      }
    }
    fact_count_ += incoming->fact_count();
    states_.emplace(version, std::move(incoming));
    return true;
  }

  if (it->second == incoming) return false;  // same handle: nothing to do

  // Merge-walk the two sorted method lists, diffing each method's sorted
  // application vector. This finds the fact-level changes in one pass (no
  // deep == pre-check) and keeps the method index adjusted incrementally.
  // Methods whose storage both states share are skipped outright — under
  // T_P step-2 sharing, only the methods the updates touched cost work.
  bool changed = false;
  const VersionState::MethodList& old_methods = it->second->methods();
  const VersionState::MethodList& new_methods = incoming->methods();
  size_t oi = 0;
  size_t ni = 0;
  auto removed = [&](MethodId method, const GroundApp& app) {
    changed = true;
    if (diff != nullptr) diff->push_back({version, method, app, false});
  };
  auto added = [&](MethodId method, const GroundApp& app) {
    changed = true;
    if (diff != nullptr) diff->push_back({version, method, app, true});
  };
  while (oi < old_methods.size() || ni < new_methods.size()) {
    if (ni == new_methods.size() ||
        (oi < old_methods.size() &&
         old_methods[oi].first < new_methods[ni].first)) {
      const auto& [method, apps] = old_methods[oi++];
      for (const GroundApp& app : apps) removed(method, app);
      IndexRemove(version, method, static_cast<uint32_t>(apps.size()));
      continue;
    }
    if (oi == old_methods.size() ||
        new_methods[ni].first < old_methods[oi].first) {
      const auto& [method, apps] = new_methods[ni++];
      for (const GroundApp& app : apps) added(method, app);
      IndexAdd(version, method, static_cast<uint32_t>(apps.size()));
      continue;
    }
    // Same method on both sides: shared storage means no change.
    if (SharesStorage(old_methods[oi].second, new_methods[ni].second)) {
      ++oi;
      ++ni;
      continue;
    }
    // Diff the sorted application vectors.
    const MethodId method = old_methods[oi].first;
    const std::vector<GroundApp>& old_apps = old_methods[oi++].second.get();
    const std::vector<GroundApp>& new_apps = new_methods[ni++].second.get();
    size_t oa = 0;
    size_t na = 0;
    uint32_t removed_count = 0;
    uint32_t added_count = 0;
    while (oa < old_apps.size() || na < new_apps.size()) {
      if (na == new_apps.size() ||
          (oa < old_apps.size() && old_apps[oa] < new_apps[na])) {
        removed(method, old_apps[oa++]);
        ++removed_count;
      } else if (oa == old_apps.size() || new_apps[na] < old_apps[oa]) {
        added(method, new_apps[na++]);
        ++added_count;
      } else {
        ++oa;
        ++na;
      }
    }
    if (removed_count != 0) IndexRemove(version, method, removed_count);
    if (added_count != 0) IndexAdd(version, method, added_count);
  }
  if (!changed) return false;

  fact_count_ -= it->second->fact_count();
  if (incoming->empty()) {
    states_.erase(it);
    return true;
  }
  fact_count_ += incoming->fact_count();
  it->second = std::move(incoming);
  return true;
}

bool ObjectBase::VersionExists(Vid version) const {
  GroundApp app;
  app.result = versions_->root(version);
  return Contains(version, exists_method_, app);
}

Vid ObjectBase::LatestExistingStage(Vid v) const {
  Vid cur = v;
  while (true) {
    if (VersionExists(cur)) return cur;
    if (versions_->depth(cur) == 0) return Vid();
    cur = versions_->parent(cur);
  }
}

void ObjectBase::SealExistence() {
  std::vector<Vid> roots;
  roots.reserve(states_.size());
  for (const auto& [vid, state] : states_) {
    if (versions_->depth(vid) == 0) roots.push_back(vid);
  }
  for (Vid vid : roots) {
    GroundApp app;
    app.result = versions_->root(vid);
    Insert(vid, exists_method_, std::move(app));
  }
}

const std::unordered_map<Vid, uint32_t>* ObjectBase::VidsWithMethod(
    MethodId method) const {
  auto it = method_index_->find(method);
  return it == method_index_->end() ? nullptr : &it->second;
}

void ObjectBase::IndexAdd(Vid version, MethodId method, uint32_t count) {
  MutableIndex()[method][version] += count;
}

void ObjectBase::IndexRemove(Vid version, MethodId method, uint32_t count) {
  MethodIndex& index = MutableIndex();
  auto mit = index.find(method);
  assert(mit != index.end());
  auto vit = mit->second.find(version);
  assert(vit != mit->second.end());
  assert(vit->second >= count);
  vit->second -= count;
  if (vit->second == 0) mit->second.erase(vit);
  if (mit->second.empty()) index.erase(mit);
}

}  // namespace verso
