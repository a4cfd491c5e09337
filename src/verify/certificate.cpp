#include "verify/certificate.hpp"

#include <stdexcept>
#include <utility>

#include "lis/netlist_io.hpp"
#include "util/fnv.hpp"

namespace lid::verify {
namespace {

using util::Json;
using util::JsonWriter;
using util::Rational;

void write_rational(JsonWriter& w, const Rational& r) { w.value(r.to_string()); }

void write_witness(JsonWriter& w, const McmWitness& m) {
  w.begin_object();
  w.key("theta");
  write_rational(w, m.theta);
  w.key("acyclic").value(m.acyclic);
  if (!m.acyclic) {
    w.key("critical").begin_object();
    w.key("mean");
    write_rational(w, m.critical.mean);
    w.key("places").begin_array();
    for (const std::int64_t p : m.critical.places) w.value(p);
    w.end_array();
    w.end_object();
  }
  w.key("component").begin_array();
  for (const int c : m.component) w.value(c);
  w.end_array();
  w.key("cyclic").begin_array();
  for (const char c : m.component_cyclic) w.value(static_cast<std::int64_t>(c));
  w.end_array();
  w.key("lambda").begin_array();
  for (const Rational& l : m.lambda) write_rational(w, l);
  w.end_array();
  w.key("potential").begin_array();
  for (const std::int64_t s : m.potential) w.value(s);
  w.end_array();
  w.end_object();
}

// -- parsing helpers; each returns false after recording an error. ----------

struct ParseState {
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) error = what;
    return false;
  }
};

bool parse_rational(const Json* v, const char* what, Rational& out, ParseState& st) {
  if (v == nullptr || !v->is_string()) return st.fail(std::string(what) + ": expected rational string");
  try {
    out = util::rational_from_string(v->as_string());
  } catch (const std::exception&) {
    return st.fail(std::string(what) + ": malformed rational '" + v->as_string() + "'");
  }
  return true;
}

bool parse_int_array(const Json* v, const char* what, std::vector<std::int64_t>& out,
                     ParseState& st) {
  if (v == nullptr || !v->is_array()) return st.fail(std::string(what) + ": expected array");
  out.clear();
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    const Json& item = v->at(i);
    if (!item.is_number()) return st.fail(std::string(what) + ": expected integer entries");
    out.push_back(item.as_int());
  }
  return true;
}

bool parse_witness(const Json* v, const char* what, McmWitness& out, ParseState& st) {
  if (v == nullptr || !v->is_object()) return st.fail(std::string(what) + ": expected object");
  if (!parse_rational(v->find("theta"), what, out.theta, st)) return false;
  const Json* acyclic = v->find("acyclic");
  if (acyclic == nullptr || !acyclic->is_bool()) {
    return st.fail(std::string(what) + ": missing acyclic flag");
  }
  out.acyclic = acyclic->as_bool();
  if (!out.acyclic) {
    const Json* critical = v->find("critical");
    if (critical == nullptr || !critical->is_object()) {
      return st.fail(std::string(what) + ": missing critical cycle");
    }
    if (!parse_rational(critical->find("mean"), what, out.critical.mean, st)) return false;
    if (!parse_int_array(critical->find("places"), what, out.critical.places, st)) return false;
  }
  std::vector<std::int64_t> tmp;
  if (!parse_int_array(v->find("component"), what, tmp, st)) return false;
  out.component.clear();
  out.component.reserve(tmp.size());
  for (const std::int64_t x : tmp) out.component.push_back(static_cast<int>(x));
  if (!parse_int_array(v->find("cyclic"), what, tmp, st)) return false;
  out.component_cyclic.clear();
  for (const std::int64_t x : tmp) out.component_cyclic.push_back(x != 0 ? 1 : 0);
  const Json* lambda = v->find("lambda");
  if (lambda == nullptr || !lambda->is_array()) {
    return st.fail(std::string(what) + ": expected lambda array");
  }
  out.lambda.clear();
  out.lambda.reserve(lambda->size());
  for (std::size_t i = 0; i < lambda->size(); ++i) {
    Rational l;
    if (!parse_rational(&lambda->at(i), what, l, st)) return false;
    out.lambda.push_back(l);
  }
  return parse_int_array(v->find("potential"), what, out.potential, st);
}

}  // namespace

std::string canonical_fingerprint(std::string_view canonical_text) {
  const std::uint64_t h = util::fnv1a64(canonical_text);
  static const char* digits = "0123456789abcdef";
  std::string out = "lis-";
  for (int shift = 60; shift >= 0; shift -= 4) out.push_back(digits[(h >> shift) & 0xF]);
  return out;
}

std::string fingerprint(const lis::LisGraph& g) { return canonical_fingerprint(lis::to_text(g)); }

void write_certificate(JsonWriter& w, const Certificate& cert) {
  w.begin_object();
  w.key("kind").value(cert.kind == Kind::kAnalyze ? "analyze" : "sizing");
  w.key("fingerprint").value(cert.fingerprint);
  w.key("ideal");
  write_witness(w, cert.ideal);
  if (cert.kind == Kind::kAnalyze) {
    w.key("practical");
    write_witness(w, cert.practical);
  } else {
    w.key("target");
    write_rational(w, cert.target);
    w.key("weights").begin_array();
    for (const QueueAssignment& qa : cert.weights) {
      w.begin_object();
      w.key("channel").value(qa.channel);
      w.key("extra").value(qa.extra);
      w.end_object();
    }
    w.end_array();
    w.key("total").value(cert.total);
    if (cert.constraint_count >= 0) {
      w.key("constraint_count").value(cert.constraint_count);
      w.key("constraints").begin_array();
      for (const DeficitConstraint& dc : cert.constraints) {
        w.begin_object();
        w.key("deficit").value(dc.deficit);
        w.key("channels").begin_array();
        for (const std::int64_t c : dc.channels) w.value(c);
        w.end_array();
        w.key("cycle").begin_array();
        for (const std::int64_t p : dc.cycle) w.value(p);
        w.end_array();
        w.end_object();
      }
      w.end_array();
    }
    w.key("achieved");
    write_witness(w, cert.achieved);
  }
  w.end_object();
}

std::string to_json(const Certificate& cert) {
  JsonWriter w;
  write_certificate(w, cert);
  return w.str();
}

CertificateParse parse_certificate(const Json& value) {
  CertificateParse out;
  ParseState st;
  Certificate& cert = out.certificate;
  if (!value.is_object()) {
    out.error = "certificate: expected object";
    return out;
  }
  const Json* kind = value.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      (kind->as_string() != "analyze" && kind->as_string() != "sizing")) {
    out.error = "certificate: kind must be \"analyze\" or \"sizing\"";
    return out;
  }
  cert.kind = kind->as_string() == "analyze" ? Kind::kAnalyze : Kind::kSizing;
  const Json* fp = value.find("fingerprint");
  if (fp == nullptr || !fp->is_string()) {
    out.error = "certificate: missing fingerprint";
    return out;
  }
  cert.fingerprint = fp->as_string();
  if (!parse_witness(value.find("ideal"), "ideal", cert.ideal, st)) {
    out.error = st.error;
    return out;
  }
  if (cert.kind == Kind::kAnalyze) {
    if (!parse_witness(value.find("practical"), "practical", cert.practical, st)) {
      out.error = st.error;
      return out;
    }
  } else {
    if (!parse_rational(value.find("target"), "target", cert.target, st)) {
      out.error = st.error;
      return out;
    }
    const Json* weights = value.find("weights");
    if (weights == nullptr || !weights->is_array()) {
      out.error = "certificate: missing weights";
      return out;
    }
    for (std::size_t i = 0; i < weights->size(); ++i) {
      const Json& qa = weights->at(i);
      const Json* channel = qa.find("channel");
      const Json* extra = qa.find("extra");
      if (!qa.is_object() || channel == nullptr || !channel->is_number() || extra == nullptr ||
          !extra->is_number()) {
        out.error = "certificate: malformed weight entry";
        return out;
      }
      cert.weights.push_back({channel->as_int(), extra->as_int()});
    }
    const Json* total = value.find("total");
    if (total == nullptr || !total->is_number()) {
      out.error = "certificate: missing total";
      return out;
    }
    cert.total = total->as_int();
    if (const Json* count = value.find("constraint_count"); count != nullptr) {
      if (!count->is_number()) {
        out.error = "certificate: malformed constraint_count";
        return out;
      }
      cert.constraint_count = count->as_int();
      const Json* constraints = value.find("constraints");
      if (constraints == nullptr || !constraints->is_array()) {
        out.error = "certificate: missing constraints";
        return out;
      }
      for (std::size_t i = 0; i < constraints->size(); ++i) {
        const Json& dc = constraints->at(i);
        const Json* deficit = dc.find("deficit");
        if (!dc.is_object() || deficit == nullptr || !deficit->is_number()) {
          out.error = "certificate: malformed constraint";
          return out;
        }
        DeficitConstraint parsed;
        parsed.deficit = deficit->as_int();
        if (!parse_int_array(dc.find("channels"), "constraint channels", parsed.channels, st) ||
            !parse_int_array(dc.find("cycle"), "constraint cycle", parsed.cycle, st)) {
          out.error = st.error;
          return out;
        }
        cert.constraints.push_back(std::move(parsed));
      }
    }
    if (!parse_witness(value.find("achieved"), "achieved", cert.achieved, st)) {
      out.error = st.error;
      return out;
    }
  }
  out.ok = true;
  return out;
}

CertificateParse parse_certificate_text(const std::string& text) {
  const util::JsonParse parsed = util::json_parse(text);
  if (!parsed.ok) {
    CertificateParse out;
    out.error = "certificate: " + parsed.error;
    return out;
  }
  return parse_certificate(parsed.value);
}

}  // namespace lid::verify
