#include "backend/zswap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tmo::backend
{

CompressorSpec
compressorPreset(const std::string &name)
{
    // Relative characteristics per §5.1: zstd gives the best ratio at a
    // modest speed cost; lz4 is fastest; lzo sits in between.
    if (name == "lzo")
        return {"lzo", 0.80, 7.0, 5.0};
    if (name == "lz4")
        return {"lz4", 0.78, 4.5, 2.5};
    if (name == "zstd")
        return {"zstd", 1.00, 11.0, 6.0};
    throw std::invalid_argument("unknown compressor '" + name +
                                "' (expected lzo|lz4|zstd)");
}

AllocatorSpec
allocatorPreset(const std::string &name)
{
    if (name == "zbud")
        return {"zbud", 1.0 / 2.0, 1.02};
    if (name == "z3fold")
        return {"z3fold", 1.0 / 3.0, 1.03};
    if (name == "zsmalloc")
        return {"zsmalloc", 0.0, 1.05};
    throw std::invalid_argument("unknown allocator '" + name +
                                "' (expected zbud|z3fold|zsmalloc)");
}

ZswapPool::ZswapPool(ZswapConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      name_("zswap-" + config_.compressor.name + "-" +
            config_.allocator.name),
      rng_(seed)
{}

BackendStatus
ZswapPool::status() const
{
    if (stallUs_ > 0.0)
        return BackendStatus::DEGRADED;
    if (config_.maxPoolBytes && usedBytes_ >= config_.maxPoolBytes)
        return BackendStatus::DEGRADED;
    return BackendStatus::HEALTHY;
}

void
ZswapPool::setMaxPoolBytes(std::uint64_t max_pool_bytes)
{
    config_.maxPoolBytes = max_pool_bytes;
}

void
ZswapPool::setStallUs(double stall_us)
{
    stallUs_ = std::max(0.0, stall_us);
}

double
ZswapPool::effectiveStallUs()
{
    if (stallUs_ <= 0.0)
        return 0.0;
    const double timeout = sim::toUsec(retry_.opTimeout);
    if (retry_.attempts <= 1 || timeout <= 0.0 || stallUs_ <= timeout)
        return stallUs_;
    // An operation stalled past the per-op timeout is treated as hung
    // on allocator compaction and reissued; a retry typically lands
    // after compaction finished, so the observed stall is capped at
    // attempts * timeout. Deterministic — no RNG involved.
    const double capped = std::min(
        stallUs_, static_cast<double>(retry_.attempts) * timeout);
    retries_ += static_cast<std::uint64_t>(
                    std::ceil(capped / timeout)) -
                1;
    return capped;
}

StoreResult
ZswapPool::store(std::uint64_t page_bytes, double compressibility,
                 sim::SimTime now)
{
    // Sample this page's achieved ratio around the workload mean,
    // scaled by the compressor's strength. Ratio 1 = incompressible.
    const double mean_ratio =
        std::max(1.0, compressibility * config_.compressor.ratioFactor);
    const double ratio = std::max(
        1.0, rng_.normal(mean_ratio, config_.ratioSpread * mean_ratio));

    double compressed =
        static_cast<double>(page_bytes) / ratio;

    StoreResult result;
    if (compressed >
        config_.rejectThreshold * static_cast<double>(page_bytes)) {
        ++rejectedPages_;
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, false);
        return result;
    }
    if (config_.maxPoolBytes &&
        usedBytes_ + static_cast<std::uint64_t>(compressed) >
            config_.maxPoolBytes) {
        ++rejectedPages_;
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, false);
        return result;
    }

    // Allocator packing: zbud/z3fold round the slot up to a fixed
    // fraction of the page; zsmalloc stores near-exactly.
    const double min_slot = config_.allocator.minSlotFraction *
                            static_cast<double>(page_bytes);
    compressed =
        std::max(compressed, min_slot) * config_.allocator.overhead;

    result.accepted = true;
    result.storedBytes = static_cast<std::uint64_t>(compressed);
    const double pages4k =
        std::max(1.0, static_cast<double>(page_bytes) / 4096.0);
    result.latency = sim::fromUsec(
        config_.compressor.compressUs * pages4k + effectiveStallUs());

    usedBytes_ += result.storedBytes;
    ++storedPages_;
    traceOp(now, OP_STORE, result.latency, result.storedBytes, 0,
            false);
    return result;
}

LoadResult
ZswapPool::load(std::uint64_t stored_bytes, sim::SimTime now)
{
    // How many real 4 KiB pages one simulated page stands for.
    const double units = std::max(
        1.0, static_cast<double>(config_.simulatedPageBytes) / 4096.0);

    release(stored_bytes);

    LoadResult result;
    // Per-real-page fault overhead + decompression, with a little
    // spread so the reported p90 (~40 us for 4 KiB, §2.5) is a
    // distribution tail.
    const double us = config_.faultOverheadUs +
                      config_.compressor.decompressUs;
    result.latency = sim::fromUsec(
        units * std::max(1.0, rng_.normal(us * 0.85, us * 0.15)) +
        effectiveStallUs());
    result.blockIo = false;
    traceOp(now, OP_LOAD, result.latency, stored_bytes, 0, false);
    return result;
}

void
ZswapPool::release(std::uint64_t stored_bytes)
{
    usedBytes_ -= std::min(usedBytes_, stored_bytes);
    if (storedPages_ > 0)
        --storedPages_;
}

} // namespace tmo::backend
