// Small-buffer type-erased callback: the simulated machine's one owning
// callback type.
//
// The event queue executes tens of millions of callbacks per simulated run;
// std::function's allocation behavior (heap for any capture beyond ~16 bytes)
// made every network delivery and most controller steps pay a malloc/free
// pair. BasicInlineCallback<R(Args...)> stores every capture inside the
// object itself and never allocates: a capture that is too big for the
// buffer, or whose move may throw, does not convert (the constructor's
// requires-clause), so it fails to compile at the site that built it. A
// site that must carry a bulky payload (a Message, a pushed line) parks it
// in a pooled slot and captures the slot pointer (see sim/object_pool.h).
// InlineCallback is the void() form with the 64-byte buffer the event queue
// uses.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dscoh {

template <typename Signature, std::size_t InlineSize = 64>
class BasicInlineCallback;

template <typename R, typename... Args, std::size_t InlineSize>
class BasicInlineCallback<R(Args...), InlineSize> {
public:
    /// Capture budget. The default is sized to the largest event capture in
    /// the tree ([this, pa, op] in the CPU core: 8 + 8 + sizeof(CpuOp)=48
    /// bytes); anything bigger belongs in a pooled slot (see
    /// sim/object_pool.h).
    static constexpr std::size_t kInlineSize = InlineSize;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    /// True when a callable of type F can be stored: it fits the buffer and
    /// has a noexcept move constructor (queue containers relocate entries
    /// while reheapifying, and those operations must not throw half-way
    /// through).
    template <typename F>
    static constexpr bool fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

    BasicInlineCallback() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, BasicInlineCallback> &&
                 fitsInline<F>())
    BasicInlineCallback(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using D = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, D&, Args...>,
                      "callback must be invocable with the signature");
        ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
        ops_ = &Model<D>::kOps;
    }

    BasicInlineCallback(BasicInlineCallback&& other) noexcept
        : ops_(other.ops_)
    {
        if (ops_ != nullptr)
            takeStorage(other);
    }

    BasicInlineCallback& operator=(BasicInlineCallback&& other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_ != nullptr)
                takeStorage(other);
        }
        return *this;
    }

    BasicInlineCallback(const BasicInlineCallback&) = delete;
    BasicInlineCallback& operator=(const BasicInlineCallback&) = delete;

    ~BasicInlineCallback() { reset(); }

    R operator()(Args... args)
    {
        assert(ops_ != nullptr && "invoking an empty InlineCallback");
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

private:
    struct Ops {
        R (*invoke)(void* storage, Args&&... args);
        /// Move-construct into @p dst from @p src and destroy @p src. Only
        /// consulted when trivialMove is false.
        void (*relocate)(void* dst, void* src) noexcept;
        /// Null when the stored state is trivially destructible, so the
        /// destructor of the common case is a load and a taken-predictable
        /// branch.
        void (*destroy)(void* storage) noexcept;
        /// True when a move is a plain byte copy of the storage (trivially
        /// copyable captures).
        bool trivialMove;
    };

    template <typename D>
    struct Model {
        static D* self(void* s)
        {
            return std::launder(static_cast<D*>(s));
        }
        // static_cast<void> drops a result the void() form does not want.
        static R invoke(void* s, Args&&... args)
        {
            return static_cast<R>((*self(s))(std::forward<Args>(args)...));
        }
        static void relocate(void* dst, void* src) noexcept
        {
            ::new (dst) D(std::move(*self(src)));
            self(src)->~D();
        }
        static void destroy(void* s) noexcept { self(s)->~D(); }
        static constexpr Ops kOps{
            &invoke, &relocate,
            std::is_trivially_destructible_v<D> ? nullptr : &destroy,
            std::is_trivially_copyable_v<D>};
    };

    /// Moves @p other's stored state (ops_ already copied) and empties it.
    void takeStorage(BasicInlineCallback& other) noexcept
    {
        // Almost every capture in the simulator is trivially copyable
        // (pointers + PODs), so a move is a fixed-size memcpy the compiler
        // turns into a few vector loads — no indirect call. The buffer's
        // bytes past the capture are indeterminate; copying them as
        // unsigned char is well-defined, which GCC cannot always see once
        // a small capture's construction is inlined into the caller.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
        if (ops_->trivialMove)
            std::memcpy(storage_, other.storage_, kInlineSize);
        else
            ops_->relocate(storage_, other.storage_);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
        other.ops_ = nullptr;
    }

    void reset() noexcept
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
};

/// The event queue's callback, and every other owned void() callback.
using InlineCallback = BasicInlineCallback<void()>;

} // namespace dscoh
