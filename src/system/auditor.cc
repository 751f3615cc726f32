#include "system/auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "partition/query_graph.h"
#include "system/system.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json.h"

namespace dsps::system {

namespace {

common::Status Violation(const std::string& what) {
  return common::Status::Internal(what);
}

}  // namespace

Auditor::Auditor(System* system, const Config& config)
    : system_(system), config_(config) {
  for (const char* name : {"coordinator", "dissemination", "query_graph",
                           "conservation", "replica_placement",
                           "tenant_conservation"}) {
    checks_.push_back(CheckStats{name, 0, 0, ""});
  }
  if (config_.metrics != nullptr) {
    sweeps_counter_ = config_.metrics->counter("audit.sweeps");
    violations_counter_ = config_.metrics->counter("audit.violations");
    for (const CheckStats& check : checks_) {
      check_counters_.push_back(config_.metrics->counter(
          "audit.violations", telemetry::MakeLabels({{"check", check.name}})));
    }
  }
}

int Auditor::RunOnce() {
  ++sweeps_;
  if (sweeps_counter_ != nullptr) sweeps_counter_->Increment();
  common::Status results[] = {CheckCoordinator(),       CheckDissemination(),
                              CheckQueryGraph(),        CheckConservation(),
                              CheckReplicaPlacement(),  CheckTenantConservation()};
  int found = 0;
  for (size_t i = 0; i < checks_.size(); ++i) {
    CheckStats& check = checks_[i];
    check.runs += 1;
    if (results[i].ok()) continue;
    ++found;
    check.violations += 1;
    check.last_detail = results[i].ToString();
    if (!check_counters_.empty()) check_counters_[i]->Increment();
    if (config_.flight != nullptr) {
      config_.flight->RecordInstant(
          "audit.violation." + check.name, system_->now(), /*node=*/-1,
          static_cast<double>(check.violations),
          telemetry::FlightRecorder::EventKind::kAudit);
      config_.flight->DumpOnce();
    }
    if (config_.fatal) {
      std::fprintf(stderr, "Auditor: %s invariant violated at t=%f: %s\n",
                   check.name.c_str(), system_->now(),
                   check.last_detail.c_str());
      std::abort();
    }
  }
  violations_ += found;
  if (violations_counter_ != nullptr && found > 0) {
    violations_counter_->Increment(found);
  }
  return found;
}

common::Status Auditor::CheckCoordinator() const {
  return system_->coordinator_->CheckInvariants();
}

common::Status Auditor::CheckDissemination() const {
  for (common::StreamId s : system_->catalog_.streams()) {
    const dissemination::DisseminationTree* tree =
        system_->disseminator_->tree(s);
    if (tree == nullptr) continue;
    common::Status st = tree->CheckInvariants();
    if (!st.ok()) {
      return Violation("stream " + std::to_string(s) + ": " + st.message());
    }
  }
  return common::Status::OK();
}

common::Status Auditor::CheckQueryGraph() const {
  // The index exists only after the first repartition round; until then
  // there is no cached structure to drift.
  if (system_->graph_index_ == nullptr) return common::Status::OK();
  std::vector<engine::Query> live;
  live.reserve(system_->query_state_.size());
  for (common::QueryId qid : system_->query_state_.SortedIds()) {
    live.push_back(system_->query_state_.At(qid));
  }
  partition::QueryGraph fresh =
      partition::QueryGraph::Build(live, system_->catalog_);
  partition::QueryGraph cached = system_->graph_index_->Graph();
  if (cached.num_vertices() != fresh.num_vertices()) {
    return Violation("query graph: vertex count drifted");
  }
  // Exact comparison, matching graph_index_test: both sides build the
  // same doubles from the same inputs, so any difference is drift.
  if (cached.total_vertex_weight() != fresh.total_vertex_weight() ||
      cached.total_edge_weight() != fresh.total_edge_weight()) {
    return Violation("query graph: total weights drifted");
  }
  for (int v = 0; v < fresh.num_vertices(); ++v) {
    if (cached.query(v) != fresh.query(v)) {
      return Violation("query graph: vertex order drifted");
    }
    if (cached.vertex_weight(v) != fresh.vertex_weight(v)) {
      return Violation("query graph: vertex weight drifted");
    }
    const auto& ca = cached.neighbors(v);
    const auto& fa = fresh.neighbors(v);
    if (ca.size() != fa.size()) {
      return Violation("query graph: adjacency size drifted");
    }
    for (size_t i = 0; i < fa.size(); ++i) {
      if (ca[i].first != fa[i].first || ca[i].second != fa[i].second) {
        return Violation("query graph: adjacency drifted");
      }
    }
  }
  return common::Status::OK();
}

common::Status Auditor::CheckConservation() const {
  const System& sys = *system_;
  // The SoA table's slot map, parallel arrays, and per-entity member
  // lists are redundant views of "placed" — they must all agree.
  DSPS_RETURN_IF_ERROR(sys.query_state_.CheckConsistent());
  for (common::QueryId qid : sys.query_state_.SortedIds()) {
    if (!sys.IsAlive(sys.query_state_.HomeOf(qid))) {
      return Violation("conservation: query homed on a dead entity");
    }
    if (sys.unplaced_.count(qid) > 0) {
      return Violation("conservation: query both placed and unplaced");
    }
  }
  // Admitted == placed + unplaced, nothing lost, nothing invented.
  if (sys.accepted_.size() != sys.query_state_.size() + sys.unplaced_.size()) {
    return Violation("conservation: admitted != placed + unplaced");
  }
  for (common::QueryId qid : sys.accepted_) {
    if (!sys.query_state_.Contains(qid) && sys.unplaced_.count(qid) == 0) {
      return Violation("conservation: admitted query lost");
    }
  }
  // Every client binding belongs to an admitted or queued query: a
  // withdrawn, refused or evicted query takes its binding with it.
  size_t stale = 0;
  for (const auto& [qid, client] : sys.client_of_query_) {
    if (sys.accepted_.count(qid) == 0 && sys.admission_queue_.count(qid) == 0) {
      ++stale;
    }
  }
  if (stale > 0) {
    return Violation("conservation: " + std::to_string(stale) + " of " +
                     std::to_string(sys.client_of_query_.size()) +
                     " client bindings outlive their query");
  }
  // The entities' own install maps must agree with the home table.
  for (int e = 0; e < sys.num_entities(); ++e) {
    const std::vector<common::QueryId>& expect = sys.query_state_.QueriesOn(e);
    std::vector<common::QueryId> installed =
        sys.entities_[e]->InstalledQueries();
    if (installed.size() != expect.size() ||
        !std::equal(installed.begin(), installed.end(), expect.begin())) {
      return Violation("conservation: entity " + std::to_string(e) +
                       " installs disagree with home table");
    }
  }
  return common::Status::OK();
}

common::Status Auditor::CheckReplicaPlacement() const {
  const System& sys = *system_;
  // Only placement-map mode has a map to drift; other modes are clean by
  // construction (the check never fires, keeping the sweep cost zero).
  if (sys.placement_map_ == nullptr) return common::Status::OK();
  const placement::PlacementMap& map = *sys.placement_map_;
  for (int e = 0; e < sys.num_entities(); ++e) {
    if (map.IsAlive(e) != sys.alive_[e]) {
      return Violation("replica_placement: map alive set disagrees at entity " +
                       std::to_string(e));
    }
    // The map's domain view must match the entities' own ground truth —
    // a drifted copy would straddle the wrong failure-correlation sets.
    if (map.domain_of(e) != sys.entities_[e]->fault_domain()) {
      return Violation("replica_placement: map domain disagrees at entity " +
                       std::to_string(e));
    }
  }
  std::set<int> alive_domains;
  for (int e = 0; e < sys.num_entities(); ++e) {
    if (sys.alive_[e]) {
      alive_domains.insert(sys.topology_.entities[e].fault_domain);
    }
  }
  for (common::QueryId qid : sys.query_state_.SortedIds()) {
    common::EntityId home = sys.query_state_.HomeOf(qid);
    std::vector<common::EntityId> targets = map.Targets(qid);
    std::set<common::EntityId> distinct;
    std::set<int> domains;
    for (common::EntityId t : targets) {
      if (!sys.IsAlive(t)) {
        return Violation("replica_placement: dead target for query " +
                         std::to_string(qid));
      }
      if (!distinct.insert(t).second) {
        return Violation("replica_placement: duplicate target for query " +
                         std::to_string(qid));
      }
      domains.insert(sys.topology_.entities[t].fault_domain);
    }
    // Declustering: replica targets straddle fault domains whenever
    // enough alive domains exist to make that possible.
    size_t want = std::min(targets.size(), alive_domains.size());
    if (domains.size() < want) {
      return Violation(
          "replica_placement: targets of query " + std::to_string(qid) +
          " cover " + std::to_string(domains.size()) + " fault domains, " +
          std::to_string(want) + " possible");
    }
    if (sys.off_map_.count(qid) > 0) continue;
    if (std::find(targets.begin(), targets.end(), home) == targets.end()) {
      return Violation("replica_placement: home of query " +
                       std::to_string(qid) +
                       " is not a map target and not on the off-map ledger");
    }
  }
  return common::Status::OK();
}

common::Status Auditor::CheckTenantConservation() const {
  const System& sys = *system_;
  // Tenant-free runs have no controller and nothing to drift.
  if (sys.admission_ == nullptr) return common::Status::OK();
  const tenant::TenantRegistry& registry = *sys.tenant_registry_;
  // Recount standing queries and loads per tenant from the System's own
  // maps — the ground truth the controller's incremental accounting must
  // match. A mismatch is exactly how a readmission double-count (or a
  // missed withdrawal) would surface.
  std::map<tenant::TenantId, int> standing;
  std::map<tenant::TenantId, double> standing_load;
  std::map<tenant::TenantId, int> queued;
  auto attribute = [&](common::QueryId qid, const engine::Query& q,
                       const char* where) -> common::Status {
    if (!registry.Contains(q.tenant)) {
      return Violation("tenant_conservation: " + std::string(where) +
                       " query " + std::to_string(qid) +
                       " owned by unregistered tenant " +
                       std::to_string(q.tenant));
    }
    standing[q.tenant] += 1;
    standing_load[q.tenant] += q.load;
    return common::Status::OK();
  };
  for (common::QueryId qid : sys.query_state_.SortedIds()) {
    DSPS_RETURN_IF_ERROR(attribute(qid, sys.query_state_.At(qid), "placed"));
  }
  for (const auto& [qid, q] : sys.unplaced_) {
    DSPS_RETURN_IF_ERROR(attribute(qid, q, "unplaced"));
  }
  for (const auto& [qid, entry] : sys.admission_queue_) {
    DSPS_RETURN_IF_ERROR(attribute(qid, entry.query, "queued"));
    // Queued submissions stand against the quota but carry no installed
    // load yet.
    standing_load[entry.query.tenant] -= entry.query.load;
    queued[entry.query.tenant] += 1;
  }
  for (const auto& [t, c] : sys.admission_->all_counters()) {
    if (c.standing != standing[t]) {
      return Violation("tenant_conservation: tenant " + std::to_string(t) +
                       " controller standing " + std::to_string(c.standing) +
                       " != recounted " + std::to_string(standing[t]));
    }
    if (c.queued_now != queued[t]) {
      return Violation("tenant_conservation: tenant " + std::to_string(t) +
                       " controller queued " + std::to_string(c.queued_now) +
                       " != recounted " + std::to_string(queued[t]));
    }
    // Loads accumulate incrementally in a different order than the
    // recount; allow for float reassociation, nothing more.
    if (std::abs(c.standing_load - standing_load[t]) > 1e-6) {
      return Violation("tenant_conservation: tenant " + std::to_string(t) +
                       " standing load drifted");
    }
  }
  // Counter identity: every submission settled exactly one way.
  return sys.admission_->CheckConservation();
}

std::string Auditor::ReportJson() const {
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("report").String("audit");
  w.Key("sweeps").Int(sweeps_);
  w.Key("violations").Int(violations_);
  w.Key("checks").BeginArray();
  for (const CheckStats& check : checks_) {
    w.BeginObject();
    w.Key("name").String(check.name);
    w.Key("runs").Int(check.runs);
    w.Key("violations").Int(check.violations);
    w.Key("last_detail").String(check.last_detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

double AuditIntervalFromEnv() {
  const char* s = std::getenv("DSPS_AUDIT_INTERVAL");
  if (s == nullptr || s[0] == '\0') return 0.0;
  double v = std::strtod(s, nullptr);
  return v > 0.0 ? v : 0.0;
}

double WatchdogIntervalFromEnv() {
  const char* s = std::getenv("DSPS_WATCHDOG");
  if (s == nullptr || s[0] == '\0') return 0.0;
  double v = std::strtod(s, nullptr);
  return v > 0.0 ? v : 0.0;
}

}  // namespace dsps::system
