/**
 * @file
 * Sparse byte-addressed memory and the store-writer shadow memory.
 *
 * The shadow memory is the *dependence oracle*: for every byte it
 * remembers the SSN and dynamic sequence number of the last store that
 * wrote it. The functional simulator uses it to annotate each load
 * with its true producing store(s), which the harness uses to measure
 * Table 5's communication columns and the timing model uses to train
 * idealized predictors (the "Perfect SMB" configuration of Figure 2).
 */

#ifndef NOSQ_WORKLOAD_MEMORY_HH
#define NOSQ_WORKLOAD_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace nosq {

/**
 * A sparse map of 4KB pages of T, materialized (value-initialized)
 * on first write, with a last-page cache: successive accesses almost
 * always share a page, so one tag check replaces a hash lookup.
 * Pages are never freed and live behind unique_ptr, so the cached
 * pointer survives map rehashes. Only present pages are cached (a
 * miss on an unwritten page stays a map lookup).
 */
template <typename T>
class PageMap
{
  public:
    static constexpr unsigned page_bits = 12;
    static constexpr Addr page_size = Addr(1) << page_bits;
    static constexpr Addr page_mask = page_size - 1;
    using Page = std::array<T, page_size>;

    /**
     * Call fn(a, done, n) for each in-page piece [a, a+n) of
     * [addr, addr+len), in address order; @p done is the piece's
     * offset within the access. An access of 8 bytes or less is at
     * most two pieces; an empty access has none. The one-piece case,
     * almost every access, is tested up front so that it compiles to
     * one lookup plus one copy rather than a loop.
     */
    template <typename Fn>
    static void
    forEachChunk(Addr addr, std::size_t len, Fn &&fn)
    {
        if (len != 0 && (addr & page_mask) + len <= page_size) {
            fn(addr, std::size_t(0), len);
            return;
        }
        for (std::size_t done = 0; done < len;) {
            const Addr a = addr + done;
            const std::size_t n = std::min<std::size_t>(
                len - done, page_size - (a & page_mask));
            fn(a, done, n);
            done += n;
        }
    }

    /** The page holding @p addr, or nullptr if it was never written. */
    const Page *
    find(Addr addr) const
    {
        const Addr tag = addr >> page_bits;
        if (tag != cachedTag || cachedPage == nullptr) {
            const auto it = pages.find(tag);
            if (it == pages.end())
                return nullptr;
            cachedTag = tag;
            cachedPage = it->second.get();
        }
        return cachedPage;
    }

    /** The page holding @p addr, materialized on first use. */
    Page &
    get(Addr addr)
    {
        const Addr tag = addr >> page_bits;
        if (tag != cachedTag || cachedPage == nullptr) {
            auto &slot = pages[tag];
            if (!slot)
                slot = std::make_unique<Page>();
            cachedTag = tag;
            cachedPage = slot.get();
        }
        return *cachedPage;
    }

    std::size_t size() const { return pages.size(); }

  private:
    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
    mutable Addr cachedTag = ~Addr(0);
    mutable Page *cachedPage = nullptr;
};

/**
 * Byte-addressable sparse memory. Every access is one page lookup
 * plus a memcpy per page it touches.
 */
class SparseMemory
{
  public:
    using Pages = PageMap<std::uint8_t>;
    static constexpr unsigned page_bits = Pages::page_bits;
    static constexpr Addr page_size = Pages::page_size;
    static constexpr Addr page_mask = Pages::page_mask;

    // read() and write() lay values out in host byte order.
    static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                  "SparseMemory assumes a little-endian host");

    /** Read @p size (1..8) bytes little-endian; unwritten bytes are 0. */
    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        std::uint64_t value = 0;
        auto *out = reinterpret_cast<std::uint8_t *>(&value);
        Pages::forEachChunk(addr, size,
                            [&](Addr a, std::size_t done, std::size_t n) {
            if (const Pages::Page *p = pages.find(a))
                std::memcpy(out + done, p->data() + (a & page_mask), n);
        });
        return value;
    }

    /** Write the low @p size bytes of @p value little-endian. */
    void
    write(Addr addr, unsigned size, std::uint64_t value)
    {
        writeBytes(addr, reinterpret_cast<const std::uint8_t *>(&value),
                   size);
    }

    std::uint8_t
    readByte(Addr addr) const
    {
        return static_cast<std::uint8_t>(read(addr, 1));
    }

    /** Copy @p len bytes to @p addr, materializing pages as needed. */
    void
    writeBytes(Addr addr, const std::uint8_t *data, std::size_t len)
    {
        Pages::forEachChunk(addr, len,
                            [&](Addr a, std::size_t done, std::size_t n) {
            std::memcpy(pages.get(a).data() + (a & page_mask),
                        data + done, n);
        });
    }

    std::size_t numPages() const { return pages.size(); }

  private:
    Pages pages;
};

/** Last-writer record for one byte of memory. */
struct ByteWriter
{
    /** Low 32 bits of the writing store's SSN; 0 = never written. */
    std::uint32_t ssn = 0;
    /** Low 32 bits of the writing store's dynamic sequence number. */
    std::uint32_t seq = 0;
    /** The writing store's access size in bytes (1/2/4/8). */
    std::uint8_t size = 0;

    bool valid() const { return ssn != 0; }
};

/** Byte-granular last-store-writer tracking (the dependence oracle). */
class ShadowMemory
{
  public:
    using Pages = PageMap<ByteWriter>;
    static constexpr Addr page_mask = Pages::page_mask;

    /** Record that store (@p ssn, @p seq) wrote [addr, addr+size). */
    void
    recordStore(Addr addr, unsigned size, SSN ssn, InstSeq seq)
    {
        ByteWriter w;
        w.ssn = static_cast<std::uint32_t>(ssn);
        w.seq = static_cast<std::uint32_t>(seq);
        w.size = static_cast<std::uint8_t>(size);
        Pages::forEachChunk(addr, size,
                            [&](Addr a, std::size_t, std::size_t n) {
            std::fill_n(pages.get(a).data() + (a & page_mask), n, w);
        });
    }

    /** @return the last-writer record for @p addr. */
    ByteWriter
    writer(Addr addr) const
    {
        const Pages::Page *p = pages.find(addr);
        return p == nullptr ? ByteWriter() : (*p)[addr & page_mask];
    }

    /**
     * Call fn(i, writer) for each byte i of [addr, addr+size), in
     * address order, walking each touched page's records after one
     * lookup.
     */
    template <typename Fn>
    void
    forEachWriter(Addr addr, unsigned size, Fn &&fn) const
    {
        Pages::forEachChunk(addr, size,
                            [&](Addr a, std::size_t done, std::size_t n) {
            const Pages::Page *p = pages.find(a);
            for (std::size_t j = 0; j < n; ++j)
                fn(unsigned(done + j), p == nullptr
                       ? ByteWriter() : (*p)[(a & page_mask) + j]);
        });
    }

  private:
    Pages pages;
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_MEMORY_HH
