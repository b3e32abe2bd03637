#include "svc/request.h"

#include <cmath>
#include <limits>

#include "core/config_io.h"
#include "obs/json_lite.h"

namespace dscoh::svc {

namespace {

/// True when @p v is a number with no fractional part inside [lo, hi], so
/// the cast to the field's integer type is exact and defined.
bool integerIn(const jsonlite::Value& v, double lo, double hi)
{
    return v.isNumber() && v.number == std::trunc(v.number) &&
           v.number >= lo && v.number <= hi;
}

} // namespace

std::string renderRequestJson(const SweepRequest& r)
{
    JsonWriter w;
    w.object();
    if (!r.id.empty())
        w.key("id").value(r.id);
    w.key("tenant").value(r.tenant)
        .key("priority").value(r.priority)
        .key("weight").value(r.weight)
        .key("size").value(to_string(r.size))
        .key("codes").array();
    for (const std::string& code : r.codes)
        w.value(code);
    w.end().key("modes").array();
    for (const CoherenceMode m : r.modes)
        w.value(to_string(m));
    return w.end().key("config").value(r.configText).end().take();
}

bool parseRequestJson(const std::string& text, SweepRequest* out,
                      std::string* error)
{
    std::string parseError;
    const jsonlite::ValuePtr v = jsonlite::parse(text, parseError);
    if (v == nullptr || !v->isObject()) {
        *error = "bad request JSON: " +
                 (parseError.empty() ? "not an object" : parseError);
        return false;
    }
    SweepRequest r;
    if (const jsonlite::Value* id = v->get("id"); id != nullptr) {
        if (!id->isString()) {
            *error = "request field 'id' must be a string";
            return false;
        }
        r.id = id->string;
    }
    if (const jsonlite::Value* t = v->get("tenant"); t != nullptr) {
        if (!t->isString() || t->string.empty()) {
            *error = "request field 'tenant' must be a non-empty string";
            return false;
        }
        r.tenant = t->string;
    }
    if (const jsonlite::Value* p = v->get("priority"); p != nullptr) {
        if (!integerIn(*p, std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max())) {
            *error = "request field 'priority' must be an integer in "
                     "[-2147483648, 2147483647]";
            return false;
        }
        r.priority = static_cast<int>(p->number);
    }
    if (const jsonlite::Value* w = v->get("weight"); w != nullptr) {
        if (!integerIn(*w, 1, std::numeric_limits<unsigned>::max())) {
            *error = "request field 'weight' must be an integer in "
                     "[1, 4294967295]";
            return false;
        }
        r.weight = static_cast<unsigned>(w->number);
    }
    if (const jsonlite::Value* s = v->get("size"); s != nullptr) {
        if (!s->isString() ||
            (s->string != "small" && s->string != "big")) {
            *error = "request field 'size' must be \"small\" or \"big\"";
            return false;
        }
        r.size = s->string == "big" ? InputSize::kBig : InputSize::kSmall;
    }
    if (const jsonlite::Value* codes = v->get("codes"); codes != nullptr) {
        if (!codes->isArray()) {
            *error = "request field 'codes' must be an array of strings";
            return false;
        }
        for (const jsonlite::ValuePtr& c : codes->array) {
            if (!c->isString()) {
                *error = "request field 'codes' must be an array of strings";
                return false;
            }
            r.codes.push_back(c->string);
        }
    }
    if (const jsonlite::Value* modes = v->get("modes"); modes != nullptr) {
        if (!modes->isArray()) {
            *error = "request field 'modes' must be an array";
            return false;
        }
        for (const jsonlite::ValuePtr& m : modes->array) {
            bool known = false;
            if (m->isString()) {
                for (const CoherenceMode mode :
                     {CoherenceMode::kCcsm, CoherenceMode::kDirectStore,
                      CoherenceMode::kDirectStoreOnly}) {
                    if (m->string == to_string(mode)) {
                        r.modes.push_back(mode);
                        known = true;
                        break;
                    }
                }
                // Friendly lowercase aliases for hand-written requests.
                if (!known && m->string == "ccsm") {
                    r.modes.push_back(CoherenceMode::kCcsm);
                    known = true;
                } else if (!known && m->string == "ds") {
                    r.modes.push_back(CoherenceMode::kDirectStore);
                    known = true;
                }
            }
            if (!known) {
                *error = "request field 'modes' has an unknown mode '" +
                         m->string + "'";
                return false;
            }
        }
    }
    if (const jsonlite::Value* cfg = v->get("config"); cfg != nullptr) {
        if (!cfg->isString()) {
            *error = "request field 'config' must be a string of "
                     "\"key = value\" lines";
            return false;
        }
        r.configText = cfg->string;
    }
    *out = std::move(r);
    return true;
}

bool expandJobs(const SweepRequest& r, std::vector<ExperimentJob>* jobs,
                std::string* error)
{
    std::vector<std::string> codes = r.codes;
    if (codes.empty())
        codes = WorkloadRegistry::instance().codes();
    for (const std::string& code : codes) {
        if (!WorkloadRegistry::instance().has(code)) {
            *error = "unknown benchmark '" + code + "'";
            return false;
        }
    }
    std::vector<CoherenceMode> modes = r.modes;
    if (modes.empty())
        modes = {CoherenceMode::kCcsm, CoherenceMode::kDirectStore};

    SystemConfig base;
    if (!r.configText.empty() &&
        !applyConfigText(r.configText, &base, error))
        return false;
    *jobs = makeSweepJobs(codes, {r.size}, modes, base);
    return true;
}

} // namespace dscoh::svc
