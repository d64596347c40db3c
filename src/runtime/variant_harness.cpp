#include "runtime/variant_harness.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace edgstr::runtime {
namespace {

std::string describe_request(const http::HttpRequest& request) {
  return http::to_string(request.verb) + " " + request.path + " " + request.params.dump();
}

std::string describe_event(const trace::RwEvent& event) {
  std::ostringstream out;
  switch (event.kind) {
    case trace::RwEvent::Kind::kDeclare: out << "declare "; break;
    case trace::RwEvent::Kind::kRead: out << "read "; break;
    case trace::RwEvent::Kind::kWrite: out << "write "; break;
  }
  out << event.name() << "@stmt" << event.stmt_id << " digest=" << event.digest;
  return out.str();
}

bool same_event(const trace::RwEvent& a, const trace::RwEvent& b) {
  return a.kind == b.kind && a.stmt_id == b.stmt_id && a.name_sym == b.name_sym &&
         a.digest == b.digest;
}

/// First point where two RW-logs disagree, rendered both-sides; empty when
/// the logs match.
std::string rwlog_delta(const std::string& ref_name, const std::vector<trace::RwEvent>& ref,
                        const std::string& name, const std::vector<trace::RwEvent>& got) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(ref[i], got[i])) {
      std::ostringstream out;
      out << "event " << i << ": " << ref_name << "=[" << describe_event(ref[i]) << "] "
          << name << "=[" << describe_event(got[i]) << "]";
      return out.str();
    }
  }
  if (ref.size() != got.size()) {
    std::ostringstream out;
    out << "length: " << ref_name << "=" << ref.size() << " events, " << name << "="
        << got.size();
    const std::vector<trace::RwEvent>& longer = ref.size() > got.size() ? ref : got;
    out << "; first extra=[" << describe_event(longer[n]) << "]";
    return out.str();
  }
  return {};
}

}  // namespace

VariantHarness::VariantHarness(const std::string& source, std::vector<VariantSpec> variants) {
  shadows_.reserve(variants.size());
  for (VariantSpec& spec : variants) {
    Shadow shadow;
    shadow.runtime = std::make_unique<ServiceRuntime>(source, spec.config);
    shadow.spec = std::move(spec);
    shadows_.push_back(std::move(shadow));
  }
}

void VariantHarness::sync_globals(minijs::Interpreter& shadow) {
  std::vector<std::pair<util::Symbol, std::uint64_t>> have;
  shadow.globals()->each_local([&](util::Symbol sym, const minijs::JsValue& value) {
    if (!value.is_callable()) have.emplace_back(sym, value.digest());
  });
  std::sort(have.begin(), have.end());
  minijs::Environment& env = *shadow.globals();
  auto mine = have.begin();
  for (PrimaryGlobal& global : primary_globals_) {
    for (; mine != have.end() && mine->first < global.sym; ++mine) env.erase_local(mine->first);
    if (mine != have.end() && mine->first == global.sym) {
      const bool same = mine->second == global.digest;
      ++mine;
      if (same) continue;
    }
    if (!global.dump) global.dump = global.value->to_json();
    env.define(global.sym, minijs::JsValue::from_json(*global.dump));
  }
  for (; mine != have.end(); ++mine) env.erase_local(mine->first);
}

void VariantHarness::replay(ServiceRuntime& primary, const http::HttpRequest& request) {
  primary.interpreter().globals()->each_local(
      [&](util::Symbol sym, const minijs::JsValue& value) {
        if (!value.is_callable()) primary_globals_.push_back({sym, &value, value.digest(), {}});
      });
  std::sort(primary_globals_.begin(), primary_globals_.end(),
            [](const PrimaryGlobal& a, const PrimaryGlobal& b) { return a.sym < b.sym; });

  for (Shadow& shadow : shadows_) {
    ServiceRuntime& runtime = *shadow.runtime;
    // Also drops the mutation log of the previous replay: shadows are
    // comparison sandboxes, not replicas, so replayed writes never leak
    // into sync accounting.
    runtime.database().sync_from(primary.database());
    runtime.filesystem().sync_from(primary.filesystem());
    sync_globals(runtime.interpreter());
    runtime.interpreter().rng() = primary.interpreter().rng();
    if (shadow.spec.test_fault) shadow.spec.test_fault(runtime);
    shadow.log.clear();
    runtime.interpreter().set_hooks(&shadow.log);
    shadow.result = runtime.handle(request);
    runtime.interpreter().set_hooks(nullptr);
  }
  primary_globals_.clear();
}

std::size_t VariantHarness::check(const http::HttpRequest& request,
                                  const ExecutionResult& primary) {
  ++checks_;
  const std::size_t before = divergences_.size();

  const std::string primary_body = primary.response.body.dump();
  for (const Shadow& shadow : shadows_) {
    const ExecutionResult& replay = shadow.result;
    std::string body = replay.response.body.dump();
    if (replay.failed != primary.failed || replay.response.status != primary.response.status ||
        body != primary_body) {
      std::ostringstream detail;
      detail << "request [" << describe_request(request) << "]: primary status="
             << primary.response.status << " failed=" << primary.failed << " body="
             << primary_body << " vs " << shadow.spec.name
             << " status=" << replay.response.status << " failed=" << replay.failed
             << " body=" << body;
      divergences_.push_back(
          Divergence{shadow.spec.name, "response", request, detail.str()});
    }
  }

  // RW-log agreement is shadow-vs-shadow: the primary serves hook-free, so
  // the first shadow's instrumented log is the reference sequence.
  for (std::size_t i = 1; i < shadows_.size(); ++i) {
    const std::string delta = rwlog_delta(shadows_[0].spec.name, shadows_[0].log.events(),
                                          shadows_[i].spec.name, shadows_[i].log.events());
    if (!delta.empty()) {
      divergences_.push_back(Divergence{
          shadows_[i].spec.name, "rwlog", request,
          "request [" + describe_request(request) + "]: " + delta});
    }
  }
  return divergences_.size() - before;
}

}  // namespace edgstr::runtime
