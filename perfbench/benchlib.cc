#include "benchlib.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "sim/report.hh"

namespace nosq {
namespace bench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

double
tailQuantile(std::size_t n)
{
    for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
        // Samples strictly beyond the q quantile's rank.
        if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9)
            return q;
    }
    return 0.0;
}

std::map<std::string, double>
relTimeGeomeans(const std::vector<RunResult> &rows,
                const std::string &baseline)
{
    std::map<std::string, Cycle> base;
    for (const RunResult &r : rows) {
        if (r.config == baseline && r.sim.cycles)
            base[r.benchmark] = r.sim.cycles;
    }
    std::map<std::string, std::vector<double>> ratios;
    for (const RunResult &r : rows) {
        const auto it = base.find(r.benchmark);
        if (it != base.end())
            ratios[r.config].push_back(static_cast<double>(r.sim.cycles) /
                                       static_cast<double>(it->second));
    }
    std::map<std::string, double> out;
    for (const auto &[config, values] : ratios)
        out[config] = geomean(values);
    return out;
}

double
idealIpcErrPct(const std::vector<std::pair<double, double>> &sim_vs_ref)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &[sim, ref] : sim_vs_ref) {
        if (!(ref > 0.0))
            continue;
        sum += std::fabs(sim - ref) / ref;
        ++n;
    }
    return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
calibrationWork(std::uint64_t seed)
{
    constexpr std::size_t keys = 16384;
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    std::vector<std::uint32_t> order(keys);
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    counts.reserve(keys / 2);
    for (std::size_t i = 0; i < keys; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order[i] = static_cast<std::uint32_t>(x);
        counts[order[i] & 8191] += static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end());
    std::uint64_t sum = 0;
    for (const std::uint32_t key : order) {
        const auto it = counts.find(key & 8191);
        if (it->second & 1)
            sum += it->second;
        else
            sum ^= key;
    }
    return sum;
}

std::vector<double>
toReferenceSeconds(const std::vector<double> &work_s,
                   const std::vector<double> &cal_s, double nominal_s)
{
    std::vector<double> out;
    if (cal_s.size() != work_s.size() + 1)
        return out;
    for (std::size_t i = 0; i < work_s.size(); ++i) {
        if (!(cal_s[i] > 0.0) || !(cal_s[i + 1] > 0.0))
            return {};
        out.push_back(work_s[i] * nominal_s /
                      ((cal_s[i] + cal_s[i + 1]) / 2.0));
    }
    return out;
}

namespace {

/** The le="..." bound of a bucket sample's label block. */
bool
bucketBound(const std::string &labels, double &out)
{
    const std::string key = "le=\"";
    const std::size_t start = labels.find(key);
    if (start == std::string::npos)
        return false;
    const std::size_t end = labels.find('"', start + key.size());
    if (end == std::string::npos)
        return false;
    const std::string text =
        labels.substr(start + key.size(), end - start - key.size());
    if (text == "+Inf") {
        out = HUGE_VAL;
        return true;
    }
    char *stop = nullptr;
    out = std::strtod(text.c_str(), &stop);
    return stop != text.c_str() && *stop == '\0';
}

} // anonymous namespace

bool
histogramQuantile(const std::vector<obs::ExpositionSample> &samples,
                  const std::string &name, double q, double &out)
{
    std::vector<std::pair<double, double>> buckets; // (le, cumulative)
    for (const obs::ExpositionSample &s : samples) {
        double le = 0.0;
        if (s.name == name + "_bucket" && bucketBound(s.labels, le))
            buckets.emplace_back(le, s.value);
    }
    std::sort(buckets.begin(), buckets.end());
    if (buckets.empty() || !std::isinf(buckets.back().first) ||
        buckets.back().second <= 0.0)
        return false;
    const double rank = q * buckets.back().second;
    double lower = 0.0;
    double below = 0.0;
    for (const auto &[le, cumulative] : buckets) {
        if (cumulative >= rank) {
            if (std::isinf(le)) {
                out = lower;
                return true;
            }
            const double in_bucket = cumulative - below;
            out = in_bucket > 0.0
                ? lower + (le - lower) * (rank - below) / in_bucket
                : le;
            return true;
        }
        lower = le;
        below = cumulative;
    }
    return false;
}

bool
expositionValue(const std::vector<obs::ExpositionSample> &samples,
                const std::string &name, double &out)
{
    for (const obs::ExpositionSample &s : samples) {
        if (s.name == name && s.labels.empty()) {
            out = s.value;
            return true;
        }
    }
    return false;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.startUs,
                                              s.startUs + s.durUs);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].startUs;
        const double hi = lo + spans[i].durUs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = lo;
        for (const auto &[start, end] : kids) {
            const double a = std::max(start, reach);
            const double b = std::min(end, hi);
            if (b > a)
                covered += b - a;
            reach = std::max(reach, std::min(end, hi));
        }
        self[i] = spans[i].durUs - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByNameUs(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_name[spans[i].name] += self[i];
    return by_name;
}

Tracer::Tracer() : epoch(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
        std::chrono::steady_clock::now() - epoch).count();
}

void
Tracer::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex);
    recorded.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recorded;
}

ScopedSpan::ScopedSpan(Tracer *tracer_, const char *name,
                       std::uint64_t parent, std::uint64_t job)
    : tracer(tracer_)
{
    if (tracer == nullptr)
        return;
    span.name = name;
    span.id = tracer->newId();
    span.parent = parent;
    span.job = job;
    span.tid = threadIndex();
    span.startUs = tracer->nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer == nullptr)
        return;
    span.durUs = tracer->nowUs() - span.startUs;
    tracer->add(std::move(span));
}

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out += "{\"name\": \"" + jsonEscape(s.name) + "\", \"cat\": \"" +
            jsonEscape(layer) + "\", \"ph\": \"X\", \"ts\": " +
            jsonNumber(s.startUs) + ", \"dur\": " +
            jsonNumber(s.durUs) + ", \"pid\": 1, \"tid\": " +
            std::to_string(s.tid) + ", \"args\": {\"span_id\": " +
            std::to_string(s.id) + ", \"parent_id\": " +
            std::to_string(s.parent) + ", \"job\": " +
            std::to_string(s.job) + "}}";
        out += i + 1 < spans.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

bool
validateChromeTrace(const std::string &text, std::size_t &events,
                    std::string &error)
{
    JsonValue doc;
    if (!parseJson(text, doc, &error))
        return false;
    const JsonValue *list = doc.find("traceEvents");
    if (list == nullptr || list->kind != JsonValue::Kind::Array) {
        error = "no traceEvents array";
        return false;
    }
    struct Seen
    {
        double start, end;
        std::uint64_t parent, job;
    };
    std::unordered_map<std::uint64_t, Seen> by_id;
    for (const JsonValue &e : list->array) {
        const JsonValue *name = e.find("name");
        const JsonValue *ph = e.find("ph");
        const JsonValue *ts = e.find("ts");
        const JsonValue *dur = e.find("dur");
        const JsonValue *tid = e.find("tid");
        const JsonValue *args = e.find("args");
        if (name == nullptr || name->kind != JsonValue::Kind::String ||
            ph == nullptr || ph->string != "X" || ts == nullptr ||
            ts->kind != JsonValue::Kind::Number || dur == nullptr ||
            dur->kind != JsonValue::Kind::Number || tid == nullptr ||
            tid->kind != JsonValue::Kind::Number || args == nullptr) {
            error = "event is not a complete (ph X) event";
            return false;
        }
        const JsonValue *id = args->find("span_id");
        const JsonValue *parent = args->find("parent_id");
        const JsonValue *job = args->find("job");
        if (id == nullptr || parent == nullptr || job == nullptr ||
            id->kind != JsonValue::Kind::Number ||
            parent->kind != JsonValue::Kind::Number ||
            job->kind != JsonValue::Kind::Number) {
            error = "event args lack span_id/parent_id/job";
            return false;
        }
        if (ts->number < 0.0 || dur->number < 0.0) {
            error = "negative ts or dur";
            return false;
        }
        const bool fresh = by_id.emplace(
            id->asU64(), Seen{ts->number, ts->number + dur->number,
                              parent->asU64(), job->asU64()}).second;
        if (!fresh) {
            error = "duplicate span_id " + std::to_string(id->asU64());
            return false;
        }
    }
    for (const auto &[id, s] : by_id) {
        if (s.parent == 0)
            continue;
        const auto it = by_id.find(s.parent);
        if (it == by_id.end()) {
            error = "span " + std::to_string(id) + " names missing parent";
            return false;
        }
        const Seen &p = it->second;
        // A parent starts before and ends after its children; the
        // slack absorbs rounding of the ts + dur sums.
        const double slack = 1e-3;
        if (s.start < p.start - slack || s.end > p.end + slack) {
            error = "span " + std::to_string(id) +
                " lies outside its parent";
            return false;
        }
        if (p.job != 0 && p.job != s.job) {
            error = "span " + std::to_string(id) +
                " has another job id than its parent";
            return false;
        }
    }
    events = list->array.size();
    return true;
}

} // namespace bench
} // namespace nosq
