#include "trace/trace_format.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "translate/lexer.h"

namespace dscoh::trace {

namespace {

// ---------------------------------------------------------------------------
// Expression evaluation with variables ($gid, $tid, ...).
// ---------------------------------------------------------------------------

using Env = std::map<std::string, std::int64_t>;

class Expr {
public:
    Expr(const std::string& text, std::size_t line)
        : text_(text), line_(line), lexed_(xlate::lex(text))
    {
    }

    std::int64_t eval(const Env& env) const
    {
        Cursor cur{0};
        const std::int64_t v = parseCompare(cur, env);
        if (lexed_.tokens[cur.pos].kind != xlate::TokKind::kEof)
            throw TraceError(line_, "trailing tokens in expression: " + text_);
        return v;
    }

    const std::string& text() const { return text_; }
    std::size_t line() const { return line_; }

private:
    struct Cursor {
        std::size_t pos;
    };

    const xlate::Token& tok(const Cursor& c) const
    {
        return lexed_.tokens[c.pos];
    }
    bool isPunct(const Cursor& c, const char* p) const
    {
        return tok(c).kind == xlate::TokKind::kPunct && tok(c).text == p;
    }
    /// Two adjacent same-character puncts (<<, >>, ==, !=, <=, >=).
    bool isPair(const Cursor& c, char a, char b) const
    {
        if (c.pos + 1 >= lexed_.tokens.size())
            return false; // at the final EOF token
        const auto& t0 = lexed_.tokens[c.pos];
        const auto& t1 = lexed_.tokens[c.pos + 1];
        return t0.kind == xlate::TokKind::kPunct && t0.text[0] == a &&
               t1.kind == xlate::TokKind::kPunct && t1.text[0] == b &&
               t1.offset == t0.offset + 1;
    }

    std::int64_t parseCompare(Cursor& c, const Env& env) const
    {
        std::int64_t lhs = parseShift(c, env);
        for (;;) {
            if (isPair(c, '=', '=')) {
                c.pos += 2;
                lhs = lhs == parseShift(c, env) ? 1 : 0;
            } else if (isPair(c, '!', '=')) {
                c.pos += 2;
                lhs = lhs != parseShift(c, env) ? 1 : 0;
            } else if (isPair(c, '<', '=')) {
                c.pos += 2;
                lhs = lhs <= parseShift(c, env) ? 1 : 0;
            } else if (isPair(c, '>', '=')) {
                c.pos += 2;
                lhs = lhs >= parseShift(c, env) ? 1 : 0;
            } else if (isPunct(c, "<") && !isPair(c, '<', '<')) {
                ++c.pos;
                lhs = lhs < parseShift(c, env) ? 1 : 0;
            } else if (isPunct(c, ">") && !isPair(c, '>', '>')) {
                ++c.pos;
                lhs = lhs > parseShift(c, env) ? 1 : 0;
            } else {
                return lhs;
            }
        }
    }

    std::int64_t parseShift(Cursor& c, const Env& env) const
    {
        std::int64_t lhs = parseAdd(c, env);
        for (;;) {
            if (isPair(c, '<', '<')) {
                c.pos += 2;
                const int n = shiftCount(parseAdd(c, env));
                const auto shifted = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(lhs) << n);
                if ((shifted >> n) != lhs)
                    overflow();
                lhs = shifted;
            } else if (isPair(c, '>', '>')) {
                c.pos += 2;
                lhs >>= shiftCount(parseAdd(c, env));
            } else {
                return lhs;
            }
        }
    }

    std::int64_t parseAdd(Cursor& c, const Env& env) const
    {
        std::int64_t lhs = parseMul(c, env);
        for (;;) {
            if (isPunct(c, "+")) {
                ++c.pos;
                if (__builtin_add_overflow(lhs, parseMul(c, env), &lhs))
                    overflow();
            } else if (isPunct(c, "-")) {
                ++c.pos;
                if (__builtin_sub_overflow(lhs, parseMul(c, env), &lhs))
                    overflow();
            } else {
                return lhs;
            }
        }
    }

    std::int64_t parseMul(Cursor& c, const Env& env) const
    {
        std::int64_t lhs = parseUnary(c, env);
        for (;;) {
            char op = 0;
            if (isPunct(c, "*"))
                op = '*';
            else if (isPunct(c, "/"))
                op = '/';
            else if (isPunct(c, "%"))
                op = '%';
            else
                return lhs;
            ++c.pos;
            const std::int64_t rhs = parseUnary(c, env);
            if (op == '*') {
                if (__builtin_mul_overflow(lhs, rhs, &lhs))
                    overflow();
                continue;
            }
            if (rhs == 0)
                throw TraceError(line_, "division by zero in: " + text_);
            if (rhs == -1 && lhs == std::numeric_limits<std::int64_t>::min())
                overflow(); // the quotient is 2^63
            lhs = op == '/' ? lhs / rhs : lhs % rhs;
        }
    }

    std::int64_t parseUnary(Cursor& c, const Env& env) const
    {
        if (isPunct(c, "-")) {
            ++c.pos;
            std::int64_t v = 0;
            if (__builtin_sub_overflow(0, parseUnary(c, env), &v))
                overflow();
            return v;
        }
        return parsePrimary(c, env);
    }

    int shiftCount(std::int64_t n) const
    {
        if (n < 0 || n > 63)
            throw TraceError(line_, "shift count " + std::to_string(n) +
                                        " is outside [0, 63] in: " + text_);
        return static_cast<int>(n);
    }

    [[noreturn]] void overflow() const
    {
        throw TraceError(line_, "64-bit overflow in: " + text_);
    }

    std::int64_t parsePrimary(Cursor& c, const Env& env) const
    {
        if (isPunct(c, "(")) {
            ++c.pos;
            const std::int64_t v = parseCompare(c, env);
            if (!isPunct(c, ")"))
                throw TraceError(line_, "missing ')' in: " + text_);
            ++c.pos;
            return v;
        }
        if (isPunct(c, "$")) {
            ++c.pos;
            if (tok(c).kind != xlate::TokKind::kIdent)
                throw TraceError(line_, "expected variable after '$'");
            const std::string name = tok(c).text;
            ++c.pos;
            const auto it = env.find(name);
            if (it == env.end())
                throw TraceError(line_, "unknown variable $" + name);
            return it->second;
        }
        if (tok(c).kind == xlate::TokKind::kNumber) {
            const std::string& body = tok(c).text;
            ++c.pos;
            try {
                if (body.size() > 2 && body[0] == '0' &&
                    (body[1] == 'x' || body[1] == 'X'))
                    return static_cast<std::int64_t>(
                        std::stoull(body.substr(2), nullptr, 16));
                return static_cast<std::int64_t>(std::stoull(body));
            } catch (const std::exception&) {
                throw TraceError(line_, "bad number: " + body);
            }
        }
        throw TraceError(line_, "unexpected token in expression: " + text_);
    }

    std::string text_;
    std::size_t line_;
    xlate::LexResult lexed_;
};

/// Accesses are naturally aligned (CUDA's rule): with line-aligned array
/// bases, an aligned access never crosses a cache line.
std::string misaligned(const std::string& array, std::uint64_t offset,
                       std::uint32_t size)
{
    return "misaligned " + std::to_string(size) + "-byte access to '" + array +
           "' at offset " + std::to_string(offset) +
           ": offsets must be a multiple of the access size";
}

// ---------------------------------------------------------------------------
// Trace IR
// ---------------------------------------------------------------------------

struct TraceArray {
    std::string name;
    std::uint64_t smallBytes = 0;
    std::uint64_t bigBytes = 0;
    bool shared = false;
    bool produced = false;
};

struct CpuStmt {
    enum class Kind { kProduce, kStore, kLoad, kLoadc, kCompute, kFence };
    Kind kind = Kind::kFence;
    std::string array;
    std::uint64_t offset = 0;
    std::uint32_t size = 4;
    std::uint64_t value = 0;
    Tick cycles = 0;
};

struct KernelStmt {
    enum class Kind { kLd, kLdc, kSt, kCompute, kSmemLd, kSmemSt };
    Kind kind = Kind::kLd;
    std::string array;
    std::shared_ptr<Expr> addr;  ///< byte offset into the array
    std::uint32_t size = 4;
    std::shared_ptr<Expr> value; ///< store value / compute cycles
    std::shared_ptr<Expr> when;  ///< optional predicate
};

struct TraceKernel {
    std::string name;
    std::uint32_t blocks = 1;
    std::uint32_t tpb = 32;
    std::vector<KernelStmt> stmts;
};

struct TraceIr {
    std::string name = "trace";
    bool sharedMemory = false;
    std::vector<TraceArray> arrays;
    std::vector<CpuStmt> cpu;
    std::vector<TraceKernel> kernels;
};

// ---------------------------------------------------------------------------
// The Workload adapter
// ---------------------------------------------------------------------------

class TraceWorkload final : public Workload {
public:
    explicit TraceWorkload(TraceIr ir) : ir_(std::move(ir)) {}

    WorkloadInfo info() const override
    {
        WorkloadInfo info;
        info.code = ir_.name;
        info.fullName = "trace-defined workload";
        info.smallInput = "trace";
        info.bigInput = "trace";
        info.suite = "trace";
        info.usesSharedMemory = ir_.sharedMemory;
        info.scalingNote = "user-defined trace";
        return info;
    }

    std::vector<ArraySpec> arrays(InputSize size) const override
    {
        std::vector<ArraySpec> out;
        for (const TraceArray& a : ir_.arrays) {
            ArraySpec spec;
            spec.name = a.name;
            spec.bytes = size == InputSize::kSmall ? a.smallBytes : a.bigBytes;
            spec.gpuShared = a.shared;
            spec.cpuProduced = a.produced;
            out.push_back(std::move(spec));
        }
        return out;
    }

    CpuProgram cpuProduce(InputSize size, const ArrayMap& mem) const override
    {
        CpuProgram prog;
        for (const CpuStmt& stmt : ir_.cpu) {
            switch (stmt.kind) {
            case CpuStmt::Kind::kProduce: {
                const Addr base = mem.at(stmt.array);
                const std::uint64_t bytes = arrayBytes(stmt.array, size);
                for (std::uint64_t off = 0; off < bytes; off += 4)
                    prog.push_back(
                        cpuStore(base + off, producedValue(base + off), 4));
                break;
            }
            case CpuStmt::Kind::kStore:
                prog.push_back(cpuStore(mem.at(stmt.array) + stmt.offset,
                                        stmt.value, stmt.size));
                break;
            case CpuStmt::Kind::kLoad:
                prog.push_back(
                    cpuLoad(mem.at(stmt.array) + stmt.offset, stmt.size));
                break;
            case CpuStmt::Kind::kLoadc:
                prog.push_back(cpuLoadCheck(mem.at(stmt.array) + stmt.offset,
                                            stmt.value, stmt.size));
                break;
            case CpuStmt::Kind::kCompute:
                prog.push_back(cpuCompute(stmt.cycles));
                break;
            case CpuStmt::Kind::kFence:
                prog.push_back(cpuFence());
                break;
            }
        }
        return prog;
    }

    std::vector<KernelDesc> kernels(InputSize size, const ArrayMap& mem) const override
    {
        std::vector<KernelDesc> out;
        for (const TraceKernel& tk : ir_.kernels) {
            KernelDesc k;
            k.name = tk.name;
            k.blocks = tk.blocks;
            k.threadsPerBlock = tk.tpb;
            k.usesSharedMemory = ir_.sharedMemory;
            // Copies keep the lambda self-contained past this call.
            auto stmts = tk.stmts;
            auto bounds = boundsFor(size);
            const std::uint32_t tpb = tk.tpb;
            const std::uint32_t blocks = tk.blocks;
            ArrayMap memCopy = mem;
            k.body = [stmts, bounds, memCopy, tpb, blocks](
                         ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
                Env env{{"gid", static_cast<std::int64_t>(b) * tpb + tid},
                        {"bid", b},
                        {"tid", tid},
                        {"ntpb", tpb},
                        {"nblocks", blocks},
                        {"nthreads", static_cast<std::int64_t>(blocks) * tpb}};
                for (const KernelStmt& s : stmts) {
                    if (s.when && s.when->eval(env) == 0) {
                        t.nop(); // keep SIMT lockstep across the warp
                        continue;
                    }
                    switch (s.kind) {
                    case KernelStmt::Kind::kLd:
                    case KernelStmt::Kind::kLdc: {
                        const Addr va = resolve(s, env, memCopy, bounds);
                        if (s.kind == KernelStmt::Kind::kLdc)
                            t.ldCheck(va, producedValue(va), s.size);
                        else
                            t.ld(va, s.size);
                        break;
                    }
                    case KernelStmt::Kind::kSt: {
                        const Addr va = resolve(s, env, memCopy, bounds);
                        const std::uint64_t value =
                            static_cast<std::uint64_t>(s.value->eval(env));
                        t.st(va, value, s.size);
                        break;
                    }
                    case KernelStmt::Kind::kCompute:
                        t.compute(static_cast<std::uint32_t>(
                            std::max<std::int64_t>(1, s.value->eval(env))));
                        break;
                    case KernelStmt::Kind::kSmemLd:
                        t.smemLd();
                        break;
                    case KernelStmt::Kind::kSmemSt:
                        t.smemSt();
                        break;
                    }
                }
            };
            out.push_back(std::move(k));
        }
        return out;
    }

private:
    using Bounds = std::map<std::string, std::uint64_t>;

    std::uint64_t arrayBytes(const std::string& name, InputSize size) const
    {
        for (const TraceArray& a : ir_.arrays)
            if (a.name == name)
                return size == InputSize::kSmall ? a.smallBytes : a.bigBytes;
        throw std::out_of_range("trace: unknown array " + name);
    }

    Bounds boundsFor(InputSize size) const
    {
        Bounds bounds;
        for (const TraceArray& a : ir_.arrays)
            bounds[a.name] =
                size == InputSize::kSmall ? a.smallBytes : a.bigBytes;
        return bounds;
    }

    static Addr resolve(const KernelStmt& s, const Env& env,
                        const ArrayMap& mem, const Bounds& bounds)
    {
        const std::int64_t off = s.addr->eval(env);
        const std::uint64_t limit = bounds.at(s.array);
        if (off < 0 || static_cast<std::uint64_t>(off) + s.size > limit)
            throw std::out_of_range(
                "trace: access to '" + s.array + "' at offset " +
                std::to_string(off) + " exceeds " + std::to_string(limit) +
                " bytes (expression: " + s.addr->text() + ")");
        const auto offset = static_cast<std::uint64_t>(off);
        if (offset % s.size != 0)
            throw TraceError(s.addr->line(),
                             misaligned(s.array, offset, s.size) +
                                 " (expression: " + s.addr->text() + ")");
        return mem.at(s.array) + offset;
    }

    TraceIr ir_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Splits a statement line into fields: bare words and '('...')' groups.
std::vector<std::string> fields(const std::string& line, std::size_t lineNo)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < line.size()) {
        if (std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
            continue;
        }
        if (line[i] == '#')
            break;
        if (line[i] == '(') {
            int depth = 0;
            const std::size_t start = i;
            for (; i < line.size(); ++i) {
                if (line[i] == '(')
                    ++depth;
                else if (line[i] == ')' && --depth == 0) {
                    ++i;
                    break;
                }
            }
            if (depth != 0)
                throw TraceError(lineNo, "unbalanced parentheses");
            out.push_back(line.substr(start, i - start));
            continue;
        }
        const std::size_t start = i;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i])) &&
               line[i] != '(' && line[i] != '#')
            ++i;
        out.push_back(line.substr(start, i - start));
    }
    return out;
}

std::uint64_t parseUint(const std::string& word, std::size_t lineNo)
{
    try {
        std::size_t used = 0;
        const std::uint64_t v = std::stoull(word, &used, 0);
        if (used != word.size())
            throw std::invalid_argument(word);
        return v;
    } catch (const std::exception&) {
        throw TraceError(lineNo, "expected a number, got '" + word + "'");
    }
}

std::uint32_t parseAccessSize(const std::string& word, std::size_t lineNo)
{
    const std::uint64_t size = parseUint(word, lineNo);
    if (size != 1 && size != 2 && size != 4 && size != 8)
        throw TraceError(lineNo, "access size must be 1, 2, 4 or 8");
    return static_cast<std::uint32_t>(size);
}

KernelStmt parseKernelStmt(std::vector<std::string> f, std::size_t lineNo)
{
    KernelStmt stmt;
    std::size_t at = 0;
    if (f.at(at) == "when") {
        if (f.size() < 3)
            throw TraceError(lineNo, "'when' needs a predicate and an op");
        stmt.when = std::make_shared<Expr>(f[1], lineNo);
        at = 2;
    }
    const std::string op = f.at(at);
    const auto need = [&](std::size_t n, const char* usage) {
        if (f.size() - at != n)
            throw TraceError(lineNo, std::string("usage: ") + usage);
    };
    if (op == "ld" || op == "ldc") {
        need(4, "ld|ldc <array> (<offset expr>) <size>");
        stmt.kind = op == "ld" ? KernelStmt::Kind::kLd : KernelStmt::Kind::kLdc;
        stmt.array = f[at + 1];
        stmt.addr = std::make_shared<Expr>(f[at + 2], lineNo);
        stmt.size = parseAccessSize(f[at + 3], lineNo);
    } else if (op == "st") {
        need(5, "st <array> (<offset expr>) <size> (<value expr>)");
        stmt.kind = KernelStmt::Kind::kSt;
        stmt.array = f[at + 1];
        stmt.addr = std::make_shared<Expr>(f[at + 2], lineNo);
        stmt.size = parseAccessSize(f[at + 3], lineNo);
        stmt.value = std::make_shared<Expr>(f[at + 4], lineNo);
    } else if (op == "compute") {
        need(2, "compute <cycles expr>");
        stmt.kind = KernelStmt::Kind::kCompute;
        stmt.value = std::make_shared<Expr>(f[at + 1], lineNo);
    } else if (op == "smem_ld") {
        need(1, "smem_ld");
        stmt.kind = KernelStmt::Kind::kSmemLd;
    } else if (op == "smem_st") {
        need(1, "smem_st");
        stmt.kind = KernelStmt::Kind::kSmemSt;
    } else {
        throw TraceError(lineNo, "unknown kernel op '" + op + "'");
    }
    return stmt;
}

CpuStmt parseCpuStmt(const std::vector<std::string>& f, std::size_t lineNo)
{
    CpuStmt stmt;
    const std::string& op = f.at(0);
    const auto need = [&](std::size_t n, const char* usage) {
        if (f.size() != n)
            throw TraceError(lineNo, std::string("usage: ") + usage);
    };
    if (op == "produce") {
        need(2, "produce <array>");
        stmt.kind = CpuStmt::Kind::kProduce;
        stmt.array = f[1];
    } else if (op == "store" || op == "load" || op == "loadc") {
        if (op == "store") {
            need(5, "store <array> <offset> <size> <value>");
            stmt.kind = CpuStmt::Kind::kStore;
            stmt.value = parseUint(f[4], lineNo);
        } else if (op == "loadc") {
            need(5, "loadc <array> <offset> <size> <expected>");
            stmt.kind = CpuStmt::Kind::kLoadc;
            stmt.value = parseUint(f[4], lineNo);
        } else {
            need(4, "load <array> <offset> <size>");
            stmt.kind = CpuStmt::Kind::kLoad;
        }
        stmt.array = f[1];
        stmt.offset = parseUint(f[2], lineNo);
        stmt.size = parseAccessSize(f[3], lineNo);
        if (stmt.offset % stmt.size != 0)
            throw TraceError(lineNo,
                             misaligned(stmt.array, stmt.offset, stmt.size));
    } else if (op == "compute") {
        need(2, "compute <cycles>");
        stmt.kind = CpuStmt::Kind::kCompute;
        stmt.cycles = parseUint(f[1], lineNo);
    } else if (op == "fence") {
        need(1, "fence");
        stmt.kind = CpuStmt::Kind::kFence;
    } else {
        throw TraceError(lineNo, "unknown cpu op '" + op + "'");
    }
    return stmt;
}

} // namespace

std::unique_ptr<Workload> parseTrace(const std::string& text)
{
    TraceIr ir;
    enum class Section { kTop, kCpu, kKernel };
    Section section = Section::kTop;
    TraceKernel kernel;

    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto f = fields(line, lineNo);
        if (f.empty())
            continue;

        if (section == Section::kCpu) {
            if (f[0] == "end") {
                section = Section::kTop;
                continue;
            }
            ir.cpu.push_back(parseCpuStmt(f, lineNo));
            continue;
        }
        if (section == Section::kKernel) {
            if (f[0] == "end") {
                ir.kernels.push_back(std::move(kernel));
                kernel = TraceKernel{};
                section = Section::kTop;
                continue;
            }
            kernel.stmts.push_back(parseKernelStmt(f, lineNo));
            continue;
        }

        // Top level.
        if (f[0] == "name") {
            if (f.size() != 2)
                throw TraceError(lineNo, "usage: name <identifier>");
            ir.name = f[1];
        } else if (f[0] == "shared-memory") {
            if (f.size() != 2 || (f[1] != "yes" && f[1] != "no"))
                throw TraceError(lineNo, "usage: shared-memory yes|no");
            ir.sharedMemory = f[1] == "yes";
        } else if (f[0] == "array") {
            TraceArray a;
            if (f.size() < 3)
                throw TraceError(lineNo,
                                 "usage: array <name> <small bytes> [big "
                                 "bytes] [shared] [private] [produced]");
            a.name = f[1];
            a.smallBytes = parseUint(f[2], lineNo);
            std::size_t at = 3;
            if (f.size() > at && std::isdigit(static_cast<unsigned char>(
                                     f[at][0]))) {
                a.bigBytes = parseUint(f[at], lineNo);
                ++at;
            } else {
                a.bigBytes = a.smallBytes;
            }
            for (; at < f.size(); ++at) {
                if (f[at] == "shared")
                    a.shared = true;
                else if (f[at] == "private")
                    a.shared = false;
                else if (f[at] == "produced")
                    a.produced = true;
                else
                    throw TraceError(lineNo, "unknown array flag '" + f[at] +
                                                 "'");
            }
            for (const TraceArray& existing : ir.arrays)
                if (existing.name == a.name)
                    throw TraceError(lineNo, "duplicate array '" + a.name + "'");
            ir.arrays.push_back(std::move(a));
        } else if (f[0] == "cpu:") {
            section = Section::kCpu;
        } else if (f[0] == "kernel") {
            // kernel <name> blocks <n> tpb <n>
            if (f.size() != 6 || f[2] != "blocks" || f[4] != "tpb")
                throw TraceError(lineNo,
                                 "usage: kernel <name> blocks <n> tpb <n>");
            kernel = TraceKernel{};
            kernel.name = f[1];
            kernel.blocks =
                static_cast<std::uint32_t>(parseUint(f[3], lineNo));
            kernel.tpb = static_cast<std::uint32_t>(parseUint(f[5], lineNo));
            if (kernel.blocks == 0 || kernel.tpb == 0 || kernel.tpb % 32 != 0)
                throw TraceError(lineNo,
                                 "blocks must be > 0 and tpb a multiple of 32");
            section = Section::kKernel;
        } else {
            throw TraceError(lineNo, "unknown directive '" + f[0] + "'");
        }
    }
    if (section != Section::kTop)
        throw TraceError(lineNo, "unterminated section (missing 'end')");
    if (ir.arrays.empty())
        throw TraceError(lineNo, "trace defines no arrays");

    // Semantic checks: every referenced array exists.
    const auto known = [&ir](const std::string& name) {
        return std::any_of(ir.arrays.begin(), ir.arrays.end(),
                           [&name](const TraceArray& a) {
                               return a.name == name;
                           });
    };
    for (const CpuStmt& s : ir.cpu)
        if (!s.array.empty() && !known(s.array))
            throw TraceError(0, "cpu section references unknown array '" +
                                    s.array + "'");
    for (const TraceKernel& k : ir.kernels)
        for (const KernelStmt& s : k.stmts)
            if (!s.array.empty() && !known(s.array))
                throw TraceError(0, "kernel '" + k.name +
                                        "' references unknown array '" +
                                        s.array + "'");

    return std::make_unique<TraceWorkload>(std::move(ir));
}

std::unique_ptr<Workload> loadTraceFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open trace file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseTrace(buffer.str());
}

} // namespace dscoh::trace
