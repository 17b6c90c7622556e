#include "sim/causal_read.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "sim/logging.hh"

namespace shrimp::causal_read
{

namespace
{

bool
fail(std::string *err, std::string msg)
{
    if (err)
        *err = std::move(msg);
    return false;
}

/** Read size of the streaming loader; a longer line grows the buffer. */
constexpr std::size_t kChunkBytes = 256 * 1024;

/** The fields of one line the reader knows; the rest are skipped. */
enum class Key
{
    Other,
    Id,
    Parent,
    Trace,
    Node,
    Name,
    StartPs,
    EndPs,
    Schema,
};

Key
keyOf(std::string_view k)
{
    // Dispatch on the length first: this runs for every key of every
    // line, and at most two names share a length.
    switch (k.size()) {
      case 2: return k == "id" ? Key::Id : Key::Other;
      case 4:
        return k == "node" ? Key::Node
               : k == "name" ? Key::Name
                             : Key::Other;
      case 5: return k == "trace" ? Key::Trace : Key::Other;
      case 6:
        return k == "parent" ? Key::Parent
               : k == "end_ps" ? Key::EndPs
                               : Key::Other;
      case 8: return k == "start_ps" ? Key::StartPs : Key::Other;
      case 13: return k == "causal_schema" ? Key::Schema : Key::Other;
      default: return Key::Other;
    }
}

/** One line's known fields; a missing one keeps Span's default. */
struct Fields
{
    Span span;
    std::uint64_t schema = 0; //!< of the header line
};

/**
 * Scanner for one line holding one flat JSON object whose values are
 * strings (without escapes) or integers.
 */
class LineScanner
{
  public:
    /** Scan [@p b, @p e) into @p f; on failure @p why says why. */
    bool
    scan(const char *b, const char *e, Fields &f, std::string &why)
    {
        p = b;
        end = e;
        ws();
        if (!eat('{'))
            return bad(why, "expected '{'");
        ws();
        if (eat('}'))
            return finish(why);
        for (;;) {
            std::string_view key;
            if (!string(key, why))
                return false;
            ws();
            if (!eat(':'))
                return bad(why, "expected ':' after a key");
            ws();
            if (!value(keyOf(key), key, f, why))
                return false;
            ws();
            if (eat('}'))
                return finish(why);
            if (!eat(','))
                return bad(why, "expected ',' or '}'");
            ws();
        }
    }

  private:
    const char *p = nullptr;
    const char *end = nullptr;

    static bool
    bad(std::string &why, const char *msg)
    {
        why = msg;
        return false;
    }

    void
    ws()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n'))
            ++p;
    }

    bool
    eat(char c)
    {
        if (p == end || *p != c)
            return false;
        ++p;
        return true;
    }

    bool
    finish(std::string &why)
    {
        ws();
        return p == end || bad(why, "trailing text after the object");
    }

    /**
     * A JSON string at p, viewed in place. The writer never escapes
     * (span names are identifiers), so a backslash is rejected.
     */
    bool
    string(std::string_view &out, std::string &why)
    {
        if (!eat('"'))
            return bad(why, "expected a string");
        const char *b = p;
        while (p < end && *p != '"' && *p != '\\')
            ++p;
        if (p == end)
            return bad(why, "unterminated string");
        if (*p == '\\')
            return bad(why, "string escapes are not supported");
        out = std::string_view(b, std::size_t(p++ - b));
        return true;
    }

    /** The value of @p key at p: a string or an integer. */
    bool
    value(Key k, std::string_view key, Fields &f, std::string &why)
    {
        if (p < end && *p == '"') {
            std::string_view s;
            if (!string(s, why))
                return false;
            if (k == Key::Name)
                f.span.name = s;
            else if (k == Key::Node)
                return bad(why, "field 'node' is not an int");
            else if (k != Key::Other)
                return notU64(key, why);
            return true;
        }
        switch (k) {
          case Key::Other: {
            const char *b = p;
            if (p < end && *p == '-')
                ++p;
            while (p < end && *p >= '0' && *p <= '9')
                ++p;
            return (p > b && p[-1] != '-') ||
                   bad(why, "expected a string or integer value");
          }
          case Key::Name:
            return bad(why, "field 'name' is not a string");
          case Key::Node: {
            auto r = std::from_chars(p, end, f.span.node);
            p = r.ptr;
            return r.ec == std::errc() ||
                   bad(why, "field 'node' is not an int");
          }
          case Key::Id: return u64(f.span.id, key, why);
          case Key::Parent: return u64(f.span.parent, key, why);
          case Key::Trace: return u64(f.span.trace, key, why);
          case Key::StartPs: return u64(f.span.startPs, key, why);
          case Key::EndPs: return u64(f.span.endPs, key, why);
          case Key::Schema: return u64(f.schema, key, why);
        }
        return true;
    }

    /** An exact uint64_t at p: no sign, fraction or exponent. */
    bool
    u64(std::uint64_t &out, std::string_view key, std::string &why)
    {
        auto r = std::from_chars(p, end, out);
        p = r.ptr;
        bool real = p < end && (*p == '.' || *p == 'e' || *p == 'E');
        return (r.ec == std::errc() && !real) || notU64(key, why);
    }

    static bool
    notU64(std::string_view key, std::string &why)
    {
        why = "field '" + std::string(key) +
              "' is not an unsigned 64-bit integer";
        return false;
    }
};

} // anonymous namespace

const Span *
Log::byId(std::uint64_t id) const
{
    std::size_t i = indexOf(id, spans.size());
    return i < spans.size() ? &spans[i] : nullptr;
}

const Span *
Log::parentOf(const Span &s) const
{
    std::size_t i = parentIdx[std::size_t(&s - spans.data())];
    return i < spans.size() ? &spans[i] : nullptr;
}

std::span<const std::size_t>
Log::childrenOf(std::uint64_t id) const
{
    std::size_t i = indexOf(id, spans.size());
    if (i == spans.size())
        return {};
    return std::span<const std::size_t>(childIdx)
        .subspan(childOff[i], childOff[i + 1] - childOff[i]);
}

std::size_t
Log::indexOf(std::uint64_t id, std::size_t hint) const
{
    // Gallop down from the hint (a child's own index: its parent was
    // usually minted just before it on the same node), then bisect.
    std::size_t lo = 0, hi = spans.size();
    if (hint < hi && spans[hint].id > id) {
        hi = hint;
        for (std::size_t step = 1; step <= hi; step *= 2) {
            if (spans[hi - step].id <= id) {
                lo = hi - step;
                break;
            }
        }
    }
    auto it = std::lower_bound(
        spans.begin() + std::ptrdiff_t(lo),
        spans.begin() + std::ptrdiff_t(hi), id,
        [](const Span &s, std::uint64_t v) { return s.id < v; });
    return it != spans.end() && it->id == id
               ? std::size_t(it - spans.begin())
               : spans.size();
}

void
Log::reindex()
{
    auto idLess = [](const Span &a, const Span &b) { return a.id < b.id; };
    if (!std::is_sorted(spans.begin(), spans.end(), idLess))
        std::stable_sort(spans.begin(), spans.end(), idLess);

    // Parents by index, then children in compressed-row form, each
    // list in span order: count per parent, prefix-sum, place.
    const std::size_t n = spans.size();
    parentIdx.assign(n, n);
    childOff.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].parent) {
            parentIdx[i] = indexOf(spans[i].parent, i);
            if (parentIdx[i] < n)
                ++childOff[parentIdx[i] + 1];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        childOff[i + 1] += childOff[i];
    childIdx.resize(childOff.back());
    std::vector<std::size_t> fill(childOff.begin(), childOff.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        if (parentIdx[i] < n)
            childIdx[fill[parentIdx[i]]++] = i;
}

std::string_view
Log::intern(std::string_view name)
{
    auto it = nameSet.find(name);
    if (it != nameSet.end())
        return *it;
    return *nameSet.insert(names.emplace_back(name)).first;
}

bool
load(const std::string &path, Log &out, std::string *err)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> in(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!in)
        return fail(err, "cannot open '" + path + "'");

    out = Log{};
    LineScanner scanner;
    std::string why;
    std::size_t lineno = 0;
    bool saw_header = false;
    auto line = [&](const char *b, const char *e) {
        ++lineno;
        if (b == e)
            return true;
        Fields f;
        if (!scanner.scan(b, e, f, why))
            return false;
        if (!saw_header) {
            if (f.schema != 1) {
                why = "missing causal_schema:1 header";
                return false;
            }
            saw_header = true;
            return true;
        }
        if (f.span.id == 0) {
            why = "span without id";
            return false;
        }
        f.span.name = out.intern(f.span.name);
        out.spans.push_back(f.span);
        return true;
    };

    auto failAtLine = [&] {
        return fail(err, strfmt("%s:%zu: %s", path.c_str(), lineno,
                                why.c_str()));
    };

    // Stream the file: scan every complete line in the buffer, then
    // carry the partial last line to the front of the next read.
    std::vector<char> buf(kChunkBytes);
    std::size_t carry = 0;
    for (;;) {
        std::size_t got = std::fread(buf.data() + carry, 1,
                                     buf.size() - carry, in.get());
        if (got == 0 && std::ferror(in.get()))
            return fail(err, "cannot read '" + path + "'");
        const char *p = buf.data();
        const char *end = p + carry + got;
        while (const char *nl = static_cast<const char *>(
                   std::memchr(p, '\n', std::size_t(end - p)))) {
            if (!line(p, nl))
                return failAtLine();
            p = nl + 1;
        }
        if (got == 0) { // EOF: a last line without its newline
            if (p != end && !line(p, end))
                return failAtLine();
            break;
        }
        carry = std::size_t(end - p);
        std::memmove(buf.data(), p, carry);
        if (carry == buf.size())
            buf.resize(2 * buf.size()); // one line outgrew the buffer
    }
    if (!saw_header)
        return fail(err, path + ": empty causal log");
    out.reindex();
    return true;
}

bool
validate(const Log &log, std::string *err)
{
    // Spans are ordered by id, so a duplicate sits next to its twin.
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        if (i && log.spans[i - 1].id == s.id)
            return fail(err, strfmt("duplicate span id %llu",
                                    (unsigned long long)s.id));
        if (s.endPs < s.startPs)
            return fail(err,
                        strfmt("span %llu ends before it starts",
                               (unsigned long long)s.id));
        if (!s.parent) {
            if (s.trace != s.id)
                return fail(
                    err,
                    strfmt("root span %llu has trace %llu (not itself)",
                           (unsigned long long)s.id,
                           (unsigned long long)s.trace));
            continue;
        }
        const Span *p = log.parentOf(s);
        if (!p)
            return fail(err,
                        strfmt("span %llu: parent %llu not in log",
                               (unsigned long long)s.id,
                               (unsigned long long)s.parent));
        if (s.trace != p->trace)
            return fail(err,
                        strfmt("span %llu: trace %llu differs from "
                               "parent's %llu",
                               (unsigned long long)s.id,
                               (unsigned long long)s.trace,
                               (unsigned long long)p->trace));
        if (s.startPs < p->startPs)
            return fail(err,
                        strfmt("span %llu starts before its parent "
                               "%llu",
                               (unsigned long long)s.id,
                               (unsigned long long)s.parent));
    }
    return true;
}

bool
criticalPath(const Log &log, std::uint64_t root_id, CriticalPath &out,
             std::string *err)
{
    const Span *root = log.byId(root_id);
    if (!root)
        return fail(err, strfmt("no span %llu in log",
                                (unsigned long long)root_id));

    out = CriticalPath{};
    out.rootId = root->id;
    out.rootName = std::string(root->name);
    out.startPs = root->startPs;
    out.endPs = root->endPs;
    out.totalPs = root->durationPs();

    // Collect the root's subtree with depths (BFS).
    struct Node
    {
        const Span *span;
        int depth;
    };
    std::vector<Node> subtree;
    std::vector<Node> work{{root, 0}};
    while (!work.empty()) {
        Node n = work.back();
        work.pop_back();
        subtree.push_back(n);
        for (std::size_t ci : log.childrenOf(n.span->id))
            work.push_back(Node{&log.spans[ci], n.depth + 1});
    }

    // Segment [root.start, root.end] at every span boundary that
    // falls inside it, then attribute each segment to the deepest
    // covering span (ties: the latest-started, then highest id, so
    // the choice is deterministic). The segments partition the root
    // interval exactly.
    std::vector<std::uint64_t> cuts{root->startPs, root->endPs};
    for (const Node &n : subtree) {
        if (n.span->startPs > root->startPs &&
            n.span->startPs < root->endPs)
            cuts.push_back(n.span->startPs);
        if (n.span->endPs > root->startPs &&
            n.span->endPs < root->endPs)
            cuts.push_back(n.span->endPs);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::map<std::string_view, Attribution> byName;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        std::uint64_t lo = cuts[i], hi = cuts[i + 1];
        if (lo == hi)
            continue;
        const Node *best = nullptr;
        for (const Node &n : subtree) {
            if (n.span->startPs > lo || n.span->endPs < hi)
                continue; // does not cover the whole segment
            if (!best || n.depth > best->depth ||
                (n.depth == best->depth &&
                 (n.span->startPs > best->span->startPs ||
                  (n.span->startPs == best->span->startPs &&
                   n.span->id > best->span->id))))
                best = &n;
        }
        // The root always covers, so best is never null.
        Attribution &a = byName[best->span->name];
        a.ps += hi - lo;
        ++a.segments;
    }

    out.stages.reserve(byName.size());
    for (auto &[name, a] : byName) {
        a.name = std::string(name);
        out.stages.push_back(std::move(a));
    }
    std::sort(out.stages.begin(), out.stages.end(),
              [](const Attribution &a, const Attribution &b) {
                  return a.ps != b.ps ? a.ps > b.ps : a.name < b.name;
              });
    return true;
}

const Span *
findRoot(const Log &log, const std::string &name_substr)
{
    const Span *best = nullptr;
    for (const Span &s : log.spans) {
        if (name_substr.empty()) {
            if (s.parent)
                continue; // default mode considers trace roots only
        } else if (s.name.find(name_substr) == std::string::npos) {
            continue;
        }
        if (!best || s.durationPs() > best->durationPs() ||
            (s.durationPs() == best->durationPs() && s.id < best->id))
            best = &s;
    }
    return best;
}

std::vector<NameStat>
packetStageStats(const Log &log)
{
    std::map<std::string_view, std::pair<std::uint64_t, double>> acc;
    for (const Span &s : log.spans) {
        if (s.name.rfind("pkt.", 0) != 0)
            continue;
        auto &a = acc[s.name];
        ++a.first;
        a.second += double(s.durationPs());
    }
    std::vector<NameStat> out;
    out.reserve(acc.size());
    for (const auto &kv : acc)
        out.push_back(NameStat{std::string(kv.first), kv.second.first,
                               kv.second.second /
                                   double(kv.second.first)});
    return out;
}

} // namespace shrimp::causal_read
