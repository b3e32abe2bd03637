// Source-to-source translator tests: the §III-C pipeline on CUDA-like
// sources — kernel-argument capture, size evaluation, allocation rewriting,
// non-overlapping fixed addresses, and the multi-file project flow.
#include <gtest/gtest.h>

#include "translate/lexer.h"
#include "translate/translator.h"

namespace dscoh::xlate {
namespace {

// ---------------------------------------------------------------- lexer --

TEST(Lexer, TokenizesIdentifiersNumbersPunct)
{
    const auto r = lex("int x = 42 + 0x1f;");
    ASSERT_GE(r.tokens.size(), 8u);
    EXPECT_EQ(r.tokens[0].text, "int");
    EXPECT_EQ(r.tokens[1].text, "x");
    EXPECT_EQ(r.tokens[2].text, "=");
    EXPECT_EQ(r.tokens[3].kind, TokKind::kNumber);
    EXPECT_EQ(r.tokens[5].text, "0x1f");
    EXPECT_EQ(r.tokens.back().kind, TokKind::kEof);
}

TEST(Lexer, SkipsCommentsAndStrings)
{
    const auto r = lex("a /* b c */ // d\n e \"f g\" 'h'");
    std::vector<std::string> idents;
    for (const auto& t : r.tokens)
        if (t.kind == TokKind::kIdent)
            idents.push_back(t.text);
    EXPECT_EQ(idents, (std::vector<std::string>{"a", "e"}));
}

TEST(Lexer, RecordsObjectLikeDefines)
{
    const auto r = lex("#define N 1024\n#define SZ (N * 4)\n#define F(x) x\n");
    ASSERT_EQ(r.defines.size(), 2u);
    EXPECT_EQ(r.defines[0].first, "N");
    EXPECT_EQ(r.defines[0].second, "1024");
    EXPECT_EQ(r.defines[1].first, "SZ");
    EXPECT_EQ(r.defines[1].second, "(N * 4)");
}

TEST(Lexer, OffsetsPointIntoSource)
{
    const std::string src = "foo bar";
    const auto r = lex(src);
    EXPECT_EQ(src.substr(r.tokens[1].offset, r.tokens[1].length), "bar");
}

// ------------------------------------------------------- size evaluation --

struct EvalCase {
    const char* expr;
    std::uint64_t expected;
};

// gtest_discover_tests names each case by its printed parameter. Without
// this printer gtest dumps the raw bytes, so the name would carry the
// address of the string literal and change with every run.
void PrintTo(const EvalCase& c, std::ostream* os)
{
    *os << c.expr << " = " << c.expected;
}

class SizeEval : public ::testing::TestWithParam<EvalCase> {};

TEST_P(SizeEval, Evaluates)
{
    SourceTranslator tr;
    std::uint64_t out = 0;
    const std::map<std::string, std::string> defines{{"N", "100"},
                                                     {"DIM", "N * 2"}};
    ASSERT_TRUE(tr.evaluateSize(GetParam().expr, defines, &out))
        << GetParam().expr;
    EXPECT_EQ(out, GetParam().expected) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, SizeEval,
    ::testing::Values(EvalCase{"4096", 4096}, EvalCase{"4 * 1024", 4096},
                      EvalCase{"sizeof(float) * 100", 400},
                      EvalCase{"100 * sizeof(double)", 800},
                      EvalCase{"sizeof(int)", 4},
                      EvalCase{"sizeof(unsigned long long)", 8},
                      EvalCase{"sizeof(char)", 1},
                      EvalCase{"sizeof(float *)", 8},
                      EvalCase{"N * sizeof(float)", 400},
                      EvalCase{"DIM * DIM", 40000},
                      EvalCase{"(N + 1) * 8", 808},
                      EvalCase{"1 << 20", 1u << 20},
                      EvalCase{"1024UL", 1024},
                      EvalCase{"0x100", 256},
                      EvalCase{"100 / 4", 25}, EvalCase{"10 % 3", 1}));

TEST(SizeEvalNegative, RejectsUnknowns)
{
    SourceTranslator tr;
    std::uint64_t out = 0;
    const std::map<std::string, std::string> none;
    EXPECT_FALSE(tr.evaluateSize("n * sizeof(float)", none, &out));
    EXPECT_FALSE(tr.evaluateSize("sizeof(MyStruct)", none, &out));
    EXPECT_FALSE(tr.evaluateSize("3.5 * 2", none, &out));
    EXPECT_FALSE(tr.evaluateSize("4 / 0", none, &out));
    EXPECT_FALSE(tr.evaluateSize("", none, &out));
}

TEST(SizeEvalExtra, UserTypesViaOptions)
{
    TranslateOptions opts;
    opts.extraSizeof["Particle"] = 48;
    SourceTranslator tr(opts);
    std::uint64_t out = 0;
    const std::map<std::string, std::string> none;
    ASSERT_TRUE(tr.evaluateSize("10 * sizeof(Particle)", none, &out));
    EXPECT_EQ(out, 480u);
}

// ----------------------------------------------------------- translation --

const char* kVectorAdd = R"cuda(
#define N 50000
__global__ void vadd(float* a, float* b, float* c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) c[i] = a[i] + b[i];
}
int main() {
    float *a, *b, *c;
    a = (float*)malloc(N * sizeof(float));
    b = (float*)malloc(N * sizeof(float));
    c = (float*)malloc(N * sizeof(float));
    vadd<<<196, 256>>>(a, b, c, N);
    return 0;
}
)cuda";

TEST(Translator, CapturesKernelArguments)
{
    SourceTranslator tr;
    const auto r = tr.translateSource(kVectorAdd);
    ASSERT_EQ(r.launches.size(), 1u);
    EXPECT_EQ(r.launches[0].kernel, "vadd");
    EXPECT_EQ(r.launches[0].arguments,
              (std::vector<std::string>{"a", "b", "c", "N"}));
    EXPECT_EQ(r.kernelVariables, (std::vector<std::string>{"a", "b", "c", "N"}));
}

TEST(Translator, RewritesMallocsOfKernelVariables)
{
    SourceTranslator tr;
    const auto r = tr.translateSource(kVectorAdd);
    ASSERT_EQ(r.allocations.size(), 3u);
    const std::string& out = r.outputs.at("input.cu");
    EXPECT_EQ(out.find("malloc("), std::string::npos)
        << "all kernel-array mallocs must be rewritten";
    EXPECT_NE(out.find("ds_mmap(0x400000000000ull, N * sizeof(float))"),
              std::string::npos);
    EXPECT_NE(out.find("#include \"ds_runtime.h\""), std::string::npos);
}

TEST(Translator, AssignedAddressesDoNotOverlap)
{
    SourceTranslator tr;
    const auto r = tr.translateSource(kVectorAdd);
    ASSERT_EQ(r.allocations.size(), 3u);
    for (std::size_t i = 0; i + 1 < r.allocations.size(); ++i) {
        const auto& cur = r.allocations[i];
        const auto& next = r.allocations[i + 1];
        EXPECT_TRUE(cur.sizeKnown);
        EXPECT_EQ(cur.bytes, 50000u * 4);
        EXPECT_GE(next.address, cur.address + cur.bytes)
            << "regions must not overlap";
    }
}

TEST(Translator, OutputIsAcceptedByTheSimulatedAllocator)
{
    // The contract: every rewritten allocation can be mmapped MAP_FIXED in
    // the simulator without overlap.
    SourceTranslator tr;
    const auto r = tr.translateSource(kVectorAdd);
    AddressSpace space(1ull << 30);
    for (const auto& alloc : r.allocations)
        EXPECT_NO_THROW(space.dsMmapFixed(alloc.address, alloc.bytes));
}

TEST(Translator, CudaMallocRewrittenInsideCheckMacro)
{
    const char* src = R"cuda(
__global__ void k(double* d);
void run() {
    double* d;
    CUDA_CHECK(cudaMalloc((void**)&d, 1024 * sizeof(double)));
    k<<<1, 32>>>(d);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_EQ(r.allocations[0].variable, "d");
    EXPECT_TRUE(r.allocations[0].sizeKnown);
    EXPECT_EQ(r.allocations[0].bytes, 8192u);
    const std::string& out = r.outputs.at("input.cu");
    EXPECT_NE(out.find("(d = (decltype(d))ds_mmap(0x400000000000ull, "
                       "1024 * sizeof(double)), cudaSuccess)"),
              std::string::npos);
}

TEST(Translator, CallocUsesProductOfArguments)
{
    const char* src = R"cuda(
__global__ void k(int* v);
int main() {
    int* v;
    v = (int*)calloc(256, sizeof(int));
    k<<<1, 1>>>(v);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_TRUE(r.allocations[0].sizeKnown);
    EXPECT_EQ(r.allocations[0].bytes, 1024u);
}

TEST(Translator, NonKernelAllocationsLeftAlone)
{
    const char* src = R"cuda(
__global__ void k(float* used);
int main() {
    float* used; float* unused;
    used = (float*)malloc(64);
    unused = (float*)malloc(64);
    k<<<1, 1>>>(used);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_EQ(r.allocations[0].variable, "used");
    const std::string& out = r.outputs.at("input.cu");
    EXPECT_NE(out.find("unused = (float*)malloc(64)"), std::string::npos);
}

TEST(Translator, UnevaluableSizeFallsBackWithDiagnostic)
{
    const char* src = R"cuda(
__global__ void k(float* a);
void run(int n) {
    float* a;
    a = (float*)malloc(n * sizeof(float));
    k<<<1, 1>>>(a);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_FALSE(r.allocations[0].sizeKnown);
    EXPECT_EQ(r.allocations[0].bytes, TranslateOptions{}.fallbackBytes);
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_NE(r.diagnostics[0].find("not statically evaluable"),
              std::string::npos);
}

TEST(Translator, MultiFileProjectSharesKernelCapture)
{
    // Allocation in one file, kernel launch in another: the project pass
    // must still rewrite it.
    const std::map<std::string, std::string> files{
        {"alloc.cu", R"(float* g;
void setup() { g = (float*)malloc(4096); })"},
        {"launch.cu", R"(__global__ void k(float* g);
void go() { k<<<2, 64>>>(g); })"},
    };
    SourceTranslator tr;
    const auto r = tr.translateProject(files);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_EQ(r.allocations[0].file, "alloc.cu");
    EXPECT_TRUE(r.changed("alloc.cu", files));
    EXPECT_FALSE(r.changed("launch.cu", files));
}

TEST(Translator, ReportsKernelArgsWithoutAllocation)
{
    const char* src = R"cuda(
__global__ void k(int n);
void go() { k<<<1, 1>>>(count); }
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_NE(r.diagnostics[0].find("no heap allocation found"),
              std::string::npos);
}

TEST(Translator, FourArgLaunchConfigParsed)
{
    const char* src = R"cuda(
__global__ void k(float* a);
void go(cudaStream_t s) {
    float* a;
    a = (float*)malloc(128);
    k<<<dim3(2,2), dim3(8,8), 1024, s>>>(a);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.launches.size(), 1u);
    EXPECT_EQ(r.launches[0].arguments, std::vector<std::string>{"a"});
    EXPECT_EQ(r.allocations.size(), 1u);
}

TEST(Translator, CastlessMallocGetsDecltypeCast)
{
    const char* src = R"cuda(
__global__ void k(void* p);
void go() {
    void* p;
    p = malloc(256);
    k<<<1, 1>>>(p);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_NE(r.outputs.at("input.cu").find("p = (decltype(p))ds_mmap("),
              std::string::npos);
}

TEST(Translator, IdempotentOnAlreadyTranslatedSource)
{
    SourceTranslator tr;
    const auto first = tr.translateSource(kVectorAdd);
    const auto second = tr.translateSource(first.outputs.at("input.cu"));
    EXPECT_TRUE(second.allocations.empty())
        << "ds_mmap output must not be re-rewritten";
}

TEST(Translator, CustomBaseAddressRespected)
{
    TranslateOptions opts;
    opts.dsBase = kDsRegionBase + 0x10000000;
    SourceTranslator tr(opts);
    const auto r = tr.translateSource(kVectorAdd);
    ASSERT_FALSE(r.allocations.empty());
    EXPECT_EQ(r.allocations[0].address, kDsRegionBase + 0x10000000);
}

} // namespace
} // namespace dscoh::xlate

namespace dscoh::xlate {
namespace {

TEST(TranslatorNew, RewritesNewArrayExpressions)
{
    const char* src = R"cuda(
__global__ void k(float* a, double* b);
void go() {
    float* a; double* b;
    a = new float[1024];
    b = new double[256 + 4];
    k<<<4, 64>>>(a, b);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 2u);
    EXPECT_TRUE(r.allocations[0].sizeKnown);
    EXPECT_EQ(r.allocations[0].bytes, 4096u);
    EXPECT_EQ(r.allocations[1].bytes, 260u * 8);
    const std::string& out = r.outputs.at("input.cu");
    EXPECT_NE(out.find("a = (float*)ds_mmap(0x400000000000ull, (1024) * "
                       "sizeof(float))"),
              std::string::npos);
    EXPECT_EQ(out.find("new float"), std::string::npos);
}

TEST(TranslatorNew, LeavesScalarNewAndNonKernelNewAlone)
{
    const char* src = R"cuda(
__global__ void k(int* used);
void go() {
    int* used; int* unused; int* scalar;
    used = new int[8];
    unused = new int[8];
    scalar = new int;
    k<<<1, 32>>>(used);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_EQ(r.allocations[0].variable, "used");
    const std::string& out = r.outputs.at("input.cu");
    EXPECT_NE(out.find("unused = new int[8]"), std::string::npos);
    EXPECT_NE(out.find("scalar = new int;"), std::string::npos);
}

TEST(TranslatorNew, UnevaluableCountFallsBack)
{
    const char* src = R"cuda(
__global__ void k(float* a);
void go(int n) {
    float* a;
    a = new float[n];
    k<<<1, 32>>>(a);
}
)cuda";
    SourceTranslator tr;
    const auto r = tr.translateSource(src);
    ASSERT_EQ(r.allocations.size(), 1u);
    EXPECT_FALSE(r.allocations[0].sizeKnown);
    EXPECT_EQ(r.allocations[0].bytes, TranslateOptions{}.fallbackBytes);
}

} // namespace
} // namespace dscoh::xlate
