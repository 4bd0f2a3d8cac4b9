#include "par/dist_shallow.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "shallow/flux_kernel.hpp"
#include "util/threads.hpp"

namespace tp::par {

namespace {

constexpr int kTagUp = 1;    // row sent to the rank above (higher y)
constexpr int kTagDown = 2;  // row sent to the rank below

// Analytic per-cell operation counts, read off flux_kernel.hpp's row
// kernels (a divide, square root, max or |x| is one op, an fma two). The
// precompute pass holds the only divide and square root of the step:
// face_quantities (10) plus the CFL fold (2). The fused update pass builds
// six face sides (face_side, 5 each: the cell's once per direction, one
// per neighbor), evaluates four faces (face_flux, 17 each), then scales
// the per-direction differences (12) and applies them (7) — increments
// never touch memory.
constexpr std::uint64_t kPreFlopsPerCell = 10 + 2;
constexpr std::uint64_t kUpdateFlopsPerCell = 6 * 5 + 4 * 17 + 12 + 7;

/// Greedy cost-proportional row split: rank r's stripe ends where the
/// cost prefix first crosses its share of the total, with a midpoint rule
/// (a row joins rank r when at least half its cost fits under the
/// target) and a >= 1-row-per-rank floor. With uniform costs this
/// reproduces a near-even block partition, so it serves as both the
/// constructor's static split and the balancer's re-split.
void split_rows(std::span<const double> cost, int num_ranks,
                std::vector<int>& rows) {
    const int ny = static_cast<int>(cost.size());
    double total = 0.0;
    for (double c : cost) total += c;
    rows.assign(static_cast<std::size_t>(num_ranks), 0);
    int row = 0;
    double prefix = 0.0;
    for (int r = 0; r + 1 < num_ranks; ++r) {
        const double target =
            total * (static_cast<double>(r + 1) / num_ranks);
        const int max_end = ny - (num_ranks - 1 - r);  // leave 1 row each
        int end = row + 1;  // every rank keeps at least one row
        prefix += cost[static_cast<std::size_t>(row)];
        while (end < max_end &&
               prefix + 0.5 * cost[static_cast<std::size_t>(end)] <
                   target) {
            prefix += cost[static_cast<std::size_t>(end)];
            ++end;
        }
        rows[static_cast<std::size_t>(r)] = end - row;
        row = end;
    }
    rows[static_cast<std::size_t>(num_ranks - 1)] = ny - row;
}

// Sharded restart set (DESIGN.md §14.4). The manifest ("TPDM") records
// the global problem identity plus the writer's row partition; each
// shard ("TPDS") carries one writer rank's interior rows of h/hu/hv —
// raw storage precision at version 1, fixed-rate compressed records at
// version 2. Readers validate the whole set against their own config
// before touching any solver state, and may run at a different rank
// count than the writer.
constexpr std::uint32_t kManifestMagic = 0x5450444D;  // "TPDM"
constexpr std::uint32_t kShardMagic = 0x54504453;     // "TPDS"
constexpr std::uint32_t kRestartV1 = 1;
constexpr std::uint32_t kRestartV2 = 2;

[[nodiscard]] std::string shard_path(const std::string& basepath, int k) {
    return basepath + ".shard" + std::to_string(k);
}

}  // namespace

template <fp::PrecisionPolicy Policy>
DistributedShallowSolver<Policy>::DistributedShallowSolver(
    const DistConfig& config)
    : cfg_(config), comm_(config.ranks) {
    if (cfg_.nx < 2 || cfg_.ny < 2 || cfg_.ranks < 1 ||
        cfg_.ranks > cfg_.ny)
        throw std::invalid_argument("DistributedShallowSolver: bad config");
    if (cfg_.lb_interval < 0)
        throw std::invalid_argument(
            "DistributedShallowSolver: lb_interval < 0");
    dx_ = cfg_.width / cfg_.nx;
    dy_ = cfg_.height / cfg_.ny;

    // Static partition = the balancer's splitter under uniform costs, so
    // a uniform-cost rebalance() is a no-op by construction.
    const std::vector<double> uniform(static_cast<std::size_t>(cfg_.ny),
                                      1.0);
    split_rows(uniform, cfg_.ranks, split_scratch_);
    ranks_.resize(static_cast<std::size_t>(cfg_.ranks));
    int row = 0;
    for (int r = 0; r < cfg_.ranks; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        rk.row0 = row;
        rk.rows = split_scratch_[static_cast<std::size_t>(r)];
        row += rk.rows;
        allocate_rank(rk);
    }

    // Persistent scratch (step() and total_mass() allocate nothing).
    rank_phase_.resize(static_cast<std::size_t>(cfg_.ranks));
    ws_scratch_.resize(static_cast<std::size_t>(cfg_.ranks));
    row_cost_scratch_.resize(static_cast<std::size_t>(cfg_.ny));
    const std::size_t carry = static_cast<std::size_t>(cfg_.ny) *
                              static_cast<std::size_t>(cfg_.nx + 2);
    carry_h_.resize(carry);
    carry_hu_.resize(carry);
    carry_hv_.resize(carry);
    mass_scratch_.resize(static_cast<std::size_t>(cfg_.ny) *
                         static_cast<std::size_t>(cfg_.nx));
    mass_slices_.resize(static_cast<std::size_t>(cfg_.ranks));
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::allocate_rank(Rank& rk) const {
    const std::size_t n = static_cast<std::size_t>(rk.rows + 2) *
                          static_cast<std::size_t>(cfg_.nx + 2);
    rk.h.assign(n, storage_t(0));
    rk.hu.assign(n, storage_t(0));
    rk.hv.assign(n, storage_t(0));
    // The swap buffers and the precompute arrays share the padded pitch
    // so every kernel reuses the idx() arithmetic.
    rk.h2.assign(n, storage_t(0));
    rk.hu2.assign(n, storage_t(0));
    rk.hv2.assign(n, storage_t(0));
    rk.hf.assign(n, compute_t(0));
    rk.u.assign(n, compute_t(0));
    rk.v.assign(n, compute_t(0));
    rk.sx.assign(n, compute_t(0));
    rk.sy.assign(n, compute_t(0));
    rk.cost_seconds = 0.0;
    rk.wavespeed = compute_t(0);
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::mirror_ghost_columns(
    std::vector<storage_t>& h, std::vector<storage_t>& hu,
    std::vector<storage_t>& hv, int local_row) {
    // Reflective x walls: h and the tangential momentum copy, the normal
    // momentum negates. Negation is exact in every storage precision, so
    // reading the ghost back through the storage->compute conversion
    // yields exactly the negated compute value the historic index-clamp
    // path produced.
    const int nx = cfg_.nx;
    h[idx(local_row, 0)] = h[idx(local_row, 1)];
    hu[idx(local_row, 0)] = -hu[idx(local_row, 1)];
    hv[idx(local_row, 0)] = hv[idx(local_row, 1)];
    h[idx(local_row, nx + 1)] = h[idx(local_row, nx)];
    hu[idx(local_row, nx + 1)] = -hu[idx(local_row, nx)];
    hv[idx(local_row, nx + 1)] = hv[idx(local_row, nx)];
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::initialize_dam_break(
    double h_inside, double h_outside, double radius_fraction) {
    const double cx = 0.5 * cfg_.width;
    const double cy = 0.5 * cfg_.height;
    const double r0 = radius_fraction * std::min(cfg_.width, cfg_.height);
    for (Rank& rk : ranks_) {
        for (int j = 0; j < rk.rows; ++j) {
            for (int i = 0; i < cfg_.nx; ++i) {
                const double x = (i + 0.5) * dx_ - cx;
                const double y = (rk.row0 + j + 0.5) * dy_ - cy;
                const double r = std::sqrt(x * x + y * y);
                rk.h[idx(j + 1, i + 1)] =
                    static_cast<storage_t>(r < r0 ? h_inside : h_outside);
                rk.hu[idx(j + 1, i + 1)] = storage_t(0);
                rk.hv[idx(j + 1, i + 1)] = storage_t(0);
            }
            mirror_ghost_columns(rk.h, rk.hu, rk.hv, j + 1);
        }
        rk.cost_seconds = 0.0;
    }
    time_ = 0.0;
    step_count_ = 0;
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::post_halos() {
    // Boundary rows travel in storage precision — the wire moves exactly
    // the bytes the arrays hold (a float-storage policy ships half of
    // what double storage does), and since the received values land in
    // storage_t arrays unchanged, the state evolution is bitwise
    // identical to shipping widened doubles. Buffers cycle through the
    // comm pool, so the steady state of the exchange allocates nothing.
    // Only the interior columns [1, nx] ship: ghost columns are mirrors
    // the receiver never reads on a ghost row.
    const auto nx = static_cast<std::size_t>(cfg_.nx);
    const std::size_t row_bytes = nx * 3 * sizeof(storage_t);
    auto pack_row = [&](const Rank& rk, int local_row) {
        std::vector<std::byte> buf = comm_.acquire(row_bytes);
        auto* p = reinterpret_cast<storage_t*>(buf.data());
        std::memcpy(p, rk.h.data() + idx(local_row, 1),
                    nx * sizeof(storage_t));
        std::memcpy(p + nx, rk.hu.data() + idx(local_row, 1),
                    nx * sizeof(storage_t));
        std::memcpy(p + 2 * nx, rk.hv.data() + idx(local_row, 1),
                    nx * sizeof(storage_t));
        return buf;
    };
    for (int r = 0; r < cfg_.ranks; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        rk.wavespeed = compute_t(0);
        obs::Phase phase("dist.rank.post", r);
        if (cfg_.overlap) {
            if (r > 0)
                comm_.post_bytes(r, r - 1, kTagDown, pack_row(rk, 1));
            if (r + 1 < cfg_.ranks)
                comm_.post_bytes(r, r + 1, kTagUp, pack_row(rk, rk.rows));
        } else {
            if (r > 0)
                comm_.send_bytes(r, r - 1, kTagDown, pack_row(rk, 1));
            if (r + 1 < cfg_.ranks)
                comm_.send_bytes(r, r + 1, kTagUp, pack_row(rk, rk.rows));
        }
        rank_phase_[static_cast<std::size_t>(r)].post += phase.stop();
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::complete_halos() {
    // BSP needs its phase barrier first; the overlapped schedule claims
    // each in-flight message individually (MPI_Wait per request).
    if (!cfg_.overlap) comm_.exchange();
    const auto nx = static_cast<std::size_t>(cfg_.nx);
    auto unpack_row = [&](Rank& rk, int local_row, Message m) {
        const auto* p = reinterpret_cast<const storage_t*>(m.bytes.data());
        std::memcpy(rk.h.data() + idx(local_row, 1), p,
                    nx * sizeof(storage_t));
        std::memcpy(rk.hu.data() + idx(local_row, 1), p + nx,
                    nx * sizeof(storage_t));
        std::memcpy(rk.hv.data() + idx(local_row, 1), p + 2 * nx,
                    nx * sizeof(storage_t));
        comm_.release(std::move(m.bytes));
    };
    for (int r = 0; r < cfg_.ranks; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        obs::Phase phase("dist.rank.wait", r);
        if (r > 0) {
            unpack_row(rk, 0,
                       cfg_.overlap ? comm_.complete(r, r - 1, kTagUp)
                                    : comm_.recv(r, r - 1, kTagUp));
        } else {
            // Reflective y wall: mirror the adjacent row with the normal
            // momentum negated.
            for (int i = 1; i <= cfg_.nx; ++i) {
                rk.h[idx(0, i)] = rk.h[idx(1, i)];
                rk.hu[idx(0, i)] = rk.hu[idx(1, i)];
                rk.hv[idx(0, i)] = -rk.hv[idx(1, i)];
            }
        }
        if (r + 1 < cfg_.ranks) {
            unpack_row(rk, rk.rows + 1,
                       cfg_.overlap ? comm_.complete(r, r + 1, kTagDown)
                                    : comm_.recv(r, r + 1, kTagDown));
        } else {
            for (int i = 1; i <= cfg_.nx; ++i) {
                rk.h[idx(rk.rows + 1, i)] = rk.h[idx(rk.rows, i)];
                rk.hu[idx(rk.rows + 1, i)] = rk.hu[idx(rk.rows, i)];
                rk.hv[idx(rk.rows + 1, i)] = -rk.hv[idx(rk.rows, i)];
            }
        }
        rank_phase_[static_cast<std::size_t>(r)].wait += phase.stop();
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::precompute_rows(Rank& rk, int j0,
                                                       int j1) {
    for (int j = j0; j <= j1; ++j) {
        const std::size_t at = idx(j, 0);
        shallow::detail::RowPreArgs<storage_t, compute_t> args{
            rk.h.data() + at,  rk.hu.data() + at, rk.hv.data() + at,
            rk.hf.data() + at, rk.u.data() + at,  rk.v.data() + at,
            rk.sx.data() + at, rk.sy.data() + at, cfg_.nx + 2,
            static_cast<compute_t>(cfg_.gravity)};
        const compute_t ws = shallow::detail::dist_pre_row<
            storage_t, compute_t, simd::native_lanes<compute_t>>(args);
        rk.wavespeed = ws > rk.wavespeed ? ws : rk.wavespeed;
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::precompute_interior() {
    // One rank per task on the OpenMP team. Each rank touches only its
    // own arrays and wavespeed slot, so the fork carries no shared
    // writes; per-rank wall time feeds the balancer's cost ledger.
    const auto n = static_cast<std::int64_t>(ranks_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < n; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        obs::Phase phase("dist.rank.precompute", static_cast<int>(r));
        precompute_rows(rk, 1, rk.rows);
        const double s = phase.stop();
        rk.cost_seconds += s;
        rank_phase_[static_cast<std::size_t>(r)].precompute += s;
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::update_rows(Rank& rk, int j0,
                                                   int j1, double dt) {
    const compute_t dtdx = static_cast<compute_t>(dt / dx_);
    const compute_t dtdy = static_cast<compute_t>(dt / dy_);
    const auto gravity = static_cast<compute_t>(cfg_.gravity);
    for (int j = j0; j <= j1; ++j) {
        const std::size_t at = idx(j, 0);
        shallow::detail::RowUpdateArgs<storage_t, compute_t> args{
            rk.h.data() + at,   rk.hu.data() + at,  rk.hv.data() + at,
            rk.hf.data() + at,  rk.u.data() + at,   rk.v.data() + at,
            rk.sx.data() + at,  rk.sy.data() + at,  rk.h2.data() + at,
            rk.hu2.data() + at, rk.hv2.data() + at, cfg_.nx + 2,
            cfg_.nx,            dtdx,               dtdy,
            gravity};
        shallow::detail::dist_update_row<storage_t, compute_t,
                                         simd::native_lanes<compute_t>>(args);
        // Refresh the new row's x mirror ghosts right away, so the next
        // step's pack/precompute sees consistent walls after the swap.
        mirror_ghost_columns(rk.h2, rk.hu2, rk.hv2, j);
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::update_interior(double dt) {
    // Rows whose full 3-row stencil is owned; writes go to the swap
    // buffers, so the current state a boundary row (or a neighbor's
    // ghost) reads later is untouched. Ranks with < 3 rows have no such
    // row.
    const auto n = static_cast<std::int64_t>(ranks_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < n; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        obs::Phase phase("dist.rank.interior", static_cast<int>(r));
        if (rk.rows >= 3) update_rows(rk, 2, rk.rows - 1, dt);
        const double s = phase.stop();
        rk.cost_seconds += s;
        rank_phase_[static_cast<std::size_t>(r)].interior += s;
    }
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::update_boundary(double dt) {
    // Ghost rows are valid now (post-receipt): precompute them (their
    // wavespeed folds land after fused_dt consumed the partials, and are
    // value-neutral anyway — every ghost row duplicates some owned row's
    // speeds up to a momentum sign), finish the <= 2 ghost-adjacent rows
    // per rank, and swap the state buffers (a pointer swap — the old
    // arrays become the next step's scratch).
    const auto n = static_cast<std::int64_t>(ranks_.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < n; ++r) {
        Rank& rk = ranks_[static_cast<std::size_t>(r)];
        obs::Phase phase("dist.rank.boundary", static_cast<int>(r));
        precompute_rows(rk, 0, 0);
        precompute_rows(rk, rk.rows + 1, rk.rows + 1);
        update_rows(rk, 1, 1, dt);
        if (rk.rows > 1) update_rows(rk, rk.rows, rk.rows, dt);
        rk.h.swap(rk.h2);
        rk.hu.swap(rk.hu2);
        rk.hv.swap(rk.hv2);
        const double s = phase.stop();
        rk.cost_seconds += s;
        rank_phase_[static_cast<std::size_t>(r)].boundary += s;
    }
}

template <fp::PrecisionPolicy Policy>
double DistributedShallowSolver<Policy>::fused_dt() {
    // The precompute pass already folded every owned cell's max(sx, sy)
    // into the rank partials; combine them with an exact allreduce-max.
    // A max reduction performs no rounding, so this is bit-for-bit the
    // historic full-grid cell scan — minus the second pass over the
    // state — and available before any flux work, which is what lets the
    // flux and apply passes fuse.
    for (std::size_t r = 0; r < ranks_.size(); ++r)
        ws_scratch_[r] = static_cast<double>(ranks_[r].wavespeed);
    double rate = 0.0;
    for (double w : ws_scratch_) rate = std::max(rate, w);
    if (!std::isfinite(rate) || rate <= 0.0)
        obs::raise_numerical_fault(
            "dist.cfl", step_count_,
            "non-finite or zero global wavespeed (rate=" +
                std::to_string(rate) + ")");
    return cfg_.courant * std::min(dx_, dy_) / rate;
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::maybe_rebalance() {
    if (cfg_.lb_interval <= 0 || step_count_ == 0 ||
        step_count_ % cfg_.lb_interval != 0)
        return;
    obs::Phase phase("dist.rebalance", timers_, "rebalance");
    // Spread each rank's measured sweep seconds evenly over its rows —
    // row granularity is all the splitter needs, and the uniform spread
    // keeps a balanced partition a fixed point.
    for (const Rank& rk : ranks_) {
        const double per_row =
            rk.cost_seconds / static_cast<double>(rk.rows);
        for (int j = 0; j < rk.rows; ++j)
            row_cost_scratch_[static_cast<std::size_t>(rk.row0 + j)] =
                per_row;
    }
    rebalance(row_cost_scratch_);
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::rebalance(
    std::span<const double> row_cost) {
    if (static_cast<int>(row_cost.size()) != cfg_.ny)
        throw std::invalid_argument(
            "rebalance: row_cost must have one entry per global row");
    ++lb_stats_.evaluations;
    // split_scratch_ is persistent, so a no-op evaluation (the common
    // case: balanced costs) allocates nothing inside step().
    split_rows(row_cost, cfg_.ranks, split_scratch_);
    bool moved = false;
    for (std::size_t r = 0; r < ranks_.size(); ++r)
        if (split_scratch_[r] != ranks_[r].rows) moved = true;
    if (moved) apply_partition(split_scratch_);
    // Fresh measurement window either way: stale costs from a pre-split
    // partition would double-count the skew.
    for (Rank& rk : ranks_) rk.cost_seconds = 0.0;
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::apply_partition(
    const std::vector<int>& new_rows) {
    ++lb_stats_.resplits;
    // Park every owned row (with its ghost columns — they travel with the
    // row, bit-for-bit) in the carry buffers, re-cut the stripes, and
    // copy back. Ghost rows are dead here: the next step()'s exchange
    // rewrites them before any sweep reads them.
    const std::size_t pitch = static_cast<std::size_t>(cfg_.nx + 2);
    for (const Rank& rk : ranks_) {
        for (int j = 0; j < rk.rows; ++j) {
            const std::size_t dst =
                static_cast<std::size_t>(rk.row0 + j) * pitch;
            std::memcpy(carry_h_.data() + dst, rk.h.data() + idx(j + 1, 0),
                        pitch * sizeof(storage_t));
            std::memcpy(carry_hu_.data() + dst,
                        rk.hu.data() + idx(j + 1, 0),
                        pitch * sizeof(storage_t));
            std::memcpy(carry_hv_.data() + dst,
                        rk.hv.data() + idx(j + 1, 0),
                        pitch * sizeof(storage_t));
        }
    }
    int row = 0;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        Rank& rk = ranks_[r];
        const int old_row0 = rk.row0;
        const int old_rows = rk.rows;
        rk.row0 = row;
        rk.rows = new_rows[r];
        row += rk.rows;
        for (int j = 0; j < rk.rows; ++j) {
            const int gj = rk.row0 + j;
            if (gj < old_row0 || gj >= old_row0 + old_rows)
                ++lb_stats_.rows_moved;
        }
        allocate_rank(rk);
        for (int j = 0; j < rk.rows; ++j) {
            const std::size_t src =
                static_cast<std::size_t>(rk.row0 + j) * pitch;
            std::memcpy(rk.h.data() + idx(j + 1, 0), carry_h_.data() + src,
                        pitch * sizeof(storage_t));
            std::memcpy(rk.hu.data() + idx(j + 1, 0),
                        carry_hu_.data() + src,
                        pitch * sizeof(storage_t));
            std::memcpy(rk.hv.data() + idx(j + 1, 0),
                        carry_hv_.data() + src,
                        pitch * sizeof(storage_t));
        }
    }
}

template <fp::PrecisionPolicy Policy>
double DistributedShallowSolver<Policy>::step() {
    TP_OBS_SPAN("dist.step");
    maybe_rebalance();

    for (RankPhaseSeconds& rp : rank_phase_) rp = {};
    const std::uint64_t bytes0 = comm_.bytes_sent();
    obs::Phase pack("dist.halo_post", timers_, "halo_pack");
    post_halos();
    const double s_pack = pack.stop();
    const std::uint64_t bytes_posted = comm_.bytes_sent();
    double s_wait = 0.0;
    if (!cfg_.overlap) {
        // BSP baseline: the phase barrier sits before any update work.
        obs::Phase wait("dist.halo_wait", timers_, "halo_wait");
        complete_halos();
        s_wait = wait.stop();
    }
    // Owned-row precompute + CFL fold reads only owned state, so in
    // overlap mode it runs while the boundary-row exchange is in flight.
    obs::Phase pre("dist.precompute", timers_, "precompute");
    precompute_interior();
    const double s_pre = pre.stop();
    const double dt = fused_dt();
    // Interior rows read only owned rows too — still inside the overlap
    // window.
    obs::Phase interior("dist.interior", timers_, "interior");
    update_interior(dt);
    double s_update = interior.stop();
    if (cfg_.overlap) {
        obs::Phase wait("dist.halo_wait", timers_, "halo_wait");
        complete_halos();
        s_wait = wait.stop();
    }
    obs::Phase boundary("dist.boundary", timers_, "boundary");
    update_boundary(dt);
    s_update += boundary.stop();

    // Work accounting: one precompute record (the CFL fold rides that
    // pass) and one fused flux + apply record, split by the precision
    // they ran in. Both passes load h/hu/hv; the update also writes the
    // next state and loads hu/hv at the four neighbors too, so it
    // converts 11 loads and 3 stores. The five compute_t planes are the
    // compute-precision traffic between the passes.
    const auto cells = static_cast<std::uint64_t>(cfg_.nx) *
                       static_cast<std::uint64_t>(cfg_.ny);
    const auto threads = static_cast<std::uint32_t>(
        std::min<int>(util::max_threads(), cfg_.ranks));
    constexpr auto lanes =
        static_cast<std::uint32_t>(simd::native_lanes<compute_t>);
    constexpr bool sp = std::is_same_v<compute_t, float>;
    constexpr std::uint64_t conv =
        perf::charged_conversion<storage_t, compute_t> ? 1 : 0;
    constexpr std::uint64_t ss = sizeof(storage_t);
    constexpr std::uint64_t planes = 5 * sizeof(compute_t);
    ledger_.record("dist_pre", s_pre, sp ? cells * kPreFlopsPerCell : 0,
                   sp ? 0 : cells * kPreFlopsPerCell, cells * 3 * ss,
                   conv * cells * 3, cells * planes, threads, lanes);
    ledger_.record("dist_update", s_update,
                   sp ? cells * kUpdateFlopsPerCell : 0,
                   sp ? 0 : cells * kUpdateFlopsPerCell, cells * 6 * ss,
                   conv * cells * (11 + 3), cells * planes, threads, lanes);
    // Halo bytes per phase, not one lumped counter: every boundary-row
    // payload ships during the post phase and the wait phase claims
    // them, so "dist_halo_post" carries the wire bytes and
    // "dist_halo_wait" the (normally zero) stragglers — their sum is
    // exactly this step's halo_bytes_sent() delta in both schedules.
    ledger_.record("dist_halo_post", s_pack, 0, 0, bytes_posted - bytes0);
    ledger_.record("dist_halo_wait", s_wait, 0, 0,
                   comm_.bytes_sent() - bytes_posted);

    time_ += dt;
    ++step_count_;
    return dt;
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::run(int n) {
    for (int s = 0; s < n; ++s) step();
}

template <fp::PrecisionPolicy Policy>
double DistributedShallowSolver<Policy>::total_mass(
    ReduceAlgorithm algo) const {
    // Per-rank slices of h * cell_area, reduced by the chosen algorithm.
    // The slices live in one persistent scratch block — the historic
    // vector-of-vectors rebuild allocated R + 1 buffers per call.
    const double area = dx_ * dy_;
    std::size_t at = 0;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        const Rank& rk = ranks_[r];
        const std::size_t begin = at;
        for (int j = 1; j <= rk.rows; ++j)
            for (int i = 1; i <= cfg_.nx; ++i)
                mass_scratch_[at++] =
                    static_cast<double>(rk.h[idx(j, i)]) * area;
        mass_slices_[r] = std::span<const double>(
            mass_scratch_.data() + begin, at - begin);
    }
    return allreduce_sum(mass_slices_, algo);
}

template <fp::PrecisionPolicy Policy>
std::vector<double> DistributedShallowSolver<Policy>::gather_height()
    const {
    std::vector<double> out(static_cast<std::size_t>(cfg_.nx) *
                            static_cast<std::size_t>(cfg_.ny));
    for (const Rank& rk : ranks_)
        for (int j = 0; j < rk.rows; ++j)
            for (int i = 0; i < cfg_.nx; ++i)
                out[static_cast<std::size_t>(rk.row0 + j) *
                        static_cast<std::size_t>(cfg_.nx) +
                    static_cast<std::size_t>(i)] =
                    static_cast<double>(rk.h[idx(j + 1, i + 1)]);
    return out;
}

template <fp::PrecisionPolicy Policy>
std::vector<std::pair<int, int>>
DistributedShallowSolver<Policy>::row_partition() const {
    std::vector<std::pair<int, int>> out;
    out.reserve(ranks_.size());
    for (const Rank& rk : ranks_) out.emplace_back(rk.row0, rk.rows);
    return out;
}

template <fp::PrecisionPolicy Policy>
std::vector<double> DistributedShallowSolver<Policy>::rank_cost_seconds()
    const {
    std::vector<double> out;
    out.reserve(ranks_.size());
    for (const Rank& rk : ranks_) out.push_back(rk.cost_seconds);
    return out;
}

template <fp::PrecisionPolicy Policy>
io::CheckpointWriteInfo DistributedShallowSolver<Policy>::write_restart(
    const std::string& basepath, const io::CheckpointOptions& opt) const {
    TP_OBS_SPAN("dist.restart_write");
    const std::uint32_t version =
        opt.compressed() ? kRestartV2 : kRestartV1;
    constexpr std::uint32_t elem = sizeof(storage_t);
    const auto nx = static_cast<std::size_t>(cfg_.nx);

    io::CheckpointWriteInfo info;
    info.version = version;
    // What an uncompressed set of this partition totals: the manifest,
    // the shard headers, and three raw interior arrays per shard.
    const std::size_t manifest_bytes =
        4 * sizeof(std::uint32_t) + 2 * sizeof(std::int32_t) +
        6 * sizeof(double) + sizeof(std::int64_t) +
        ranks_.size() * 2 * sizeof(std::int32_t);
    info.raw_bytes = manifest_bytes;
    for (const Rank& rk : ranks_)
        info.raw_bytes += 2 * sizeof(std::uint32_t) +
                          2 * sizeof(std::int32_t) +
                          3 * static_cast<std::uint64_t>(rk.rows) * nx *
                              elem;

    const std::string manifest_path = basepath + ".manifest";
    std::ofstream mf(manifest_path, std::ios::binary);
    if (!mf)
        throw std::runtime_error("restart: cannot open " + manifest_path);
    io::detail::write_pod(mf, kManifestMagic);
    io::detail::write_pod(mf, version);
    io::detail::write_pod(mf, elem);
    io::detail::write_pod(mf,
                          static_cast<std::uint32_t>(ranks_.size()));
    io::detail::write_pod(mf, static_cast<std::int32_t>(cfg_.nx));
    io::detail::write_pod(mf, static_cast<std::int32_t>(cfg_.ny));
    io::detail::write_pod(mf, cfg_.width);
    io::detail::write_pod(mf, cfg_.height);
    io::detail::write_pod(mf, cfg_.gravity);
    io::detail::write_pod(mf, cfg_.courant);
    io::detail::write_pod(mf, time_);
    io::detail::write_pod(mf, step_count_);
    for (const Rank& rk : ranks_) {
        io::detail::write_pod(mf, static_cast<std::int32_t>(rk.row0));
        io::detail::write_pod(mf, static_cast<std::int32_t>(rk.rows));
    }
    mf.flush();
    io::require_write(mf);
    info.written_bytes = manifest_bytes;

    // Scratch reused across shards: the stripped interior (ghost rows
    // and columns dropped) in storage precision, plus its widening when
    // the set is compressed.
    std::vector<storage_t> interior;
    std::vector<double> wide;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        const Rank& rk = ranks_[r];
        const std::string path = shard_path(basepath, static_cast<int>(r));
        std::ofstream sf(path, std::ios::binary);
        if (!sf) throw std::runtime_error("restart: cannot open " + path);
        io::detail::write_pod(sf, kShardMagic);
        io::detail::write_pod(sf, version);
        io::detail::write_pod(sf, static_cast<std::int32_t>(rk.row0));
        io::detail::write_pod(sf, static_cast<std::int32_t>(rk.rows));
        info.written_bytes +=
            2 * sizeof(std::uint32_t) + 2 * sizeof(std::int32_t);
        const std::size_t count = static_cast<std::size_t>(rk.rows) * nx;
        interior.resize(count);
        for (const auto* field : {&rk.h, &rk.hu, &rk.hv}) {
            for (int j = 0; j < rk.rows; ++j)
                std::memcpy(interior.data() +
                                static_cast<std::size_t>(j) * nx,
                            field->data() + idx(j + 1, 1),
                            nx * sizeof(storage_t));
            if (version == kRestartV1) {
                sf.write(reinterpret_cast<const char*>(interior.data()),
                         static_cast<std::streamsize>(count *
                                                      sizeof(storage_t)));
                io::require_write(sf);
                info.written_bytes += count * sizeof(storage_t);
            } else {
                wide.resize(count);
                for (std::size_t k = 0; k < count; ++k)
                    wide[k] = static_cast<double>(interior[k]);
                const int bits =
                    io::resolve_bits(opt, io::peak_abs(wide),
                                     io::storage_digits_v<storage_t>);
                info.bits.push_back(bits);
                info.written_bytes +=
                    io::write_compressed_array(sf, wide, bits);
            }
        }
        sf.flush();
        io::require_write(sf);
    }
    return info;
}

template <fp::PrecisionPolicy Policy>
void DistributedShallowSolver<Policy>::restore_restart(
    const std::string& basepath) {
    TP_OBS_SPAN("dist.restart_restore");
    const std::string manifest_path = basepath + ".manifest";
    std::ifstream mf(manifest_path, std::ios::binary);
    if (!mf)
        throw std::runtime_error("restart: cannot open " + manifest_path);
    if (io::detail::read_pod<std::uint32_t>(mf) != kManifestMagic)
        throw std::runtime_error("restart: bad manifest magic");
    const auto version = io::detail::read_pod<std::uint32_t>(mf);
    if (version != kRestartV1 && version != kRestartV2)
        throw std::runtime_error("restart: unsupported format version");
    if (io::detail::read_pod<std::uint32_t>(mf) != sizeof(storage_t))
        throw std::runtime_error(
            "restart: storage precision differs from the solver config");
    const auto shards = io::detail::read_pod<std::uint32_t>(mf);
    const auto m_nx = io::detail::read_pod<std::int32_t>(mf);
    const auto m_ny = io::detail::read_pod<std::int32_t>(mf);
    if (m_nx != cfg_.nx || m_ny != cfg_.ny)
        throw std::runtime_error(
            "restart: global grid differs from the solver config");
    const double m_width = io::detail::read_pod<double>(mf);
    const double m_height = io::detail::read_pod<double>(mf);
    const double m_gravity = io::detail::read_pod<double>(mf);
    const double m_courant = io::detail::read_pod<double>(mf);
    if (m_width != cfg_.width || m_height != cfg_.height ||
        m_gravity != cfg_.gravity || m_courant != cfg_.courant)
        throw std::runtime_error(
            "restart: physics config differs from the solver config");
    const double m_time = io::detail::read_pod<double>(mf);
    const auto m_step = io::detail::read_pod<std::int64_t>(mf);
    if (m_step < 0)
        throw std::runtime_error("restart: negative step count");
    // Every shard owns >= 1 row, so the count is bounded by the row
    // count — reject before sizing anything by it.
    if (shards < 1 || shards > static_cast<std::uint32_t>(cfg_.ny))
        throw std::runtime_error("restart: bad shard count");
    std::vector<std::pair<int, int>> stripes(shards);
    int next_row = 0;
    for (auto& [row0, rows] : stripes) {
        row0 = io::detail::read_pod<std::int32_t>(mf);
        rows = io::detail::read_pod<std::int32_t>(mf);
        // The writer's stripes tile [0, ny) in order; anything else is
        // a corrupt or truncated manifest.
        if (row0 != next_row || rows < 1 || row0 + rows > cfg_.ny)
            throw std::runtime_error(
                "restart: shard rows do not tile the grid");
        next_row = row0 + rows;
    }
    if (next_row != cfg_.ny)
        throw std::runtime_error(
            "restart: shard rows do not tile the grid");

    // Assemble the full interior in global row-major order first — no
    // solver state changes until every shard has validated and read.
    const auto nx = static_cast<std::size_t>(cfg_.nx);
    const std::size_t total = nx * static_cast<std::size_t>(cfg_.ny);
    std::vector<storage_t> gh(total), ghu(total), ghv(total);
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::string path = shard_path(basepath, static_cast<int>(s));
        std::ifstream sf(path, std::ios::binary);
        if (!sf) throw std::runtime_error("restart: cannot open " + path);
        if (io::detail::read_pod<std::uint32_t>(sf) != kShardMagic)
            throw std::runtime_error("restart: bad shard magic");
        if (io::detail::read_pod<std::uint32_t>(sf) != version)
            throw std::runtime_error(
                "restart: shard version differs from the manifest");
        const auto [row0, rows] = stripes[s];
        if (io::detail::read_pod<std::int32_t>(sf) != row0 ||
            io::detail::read_pod<std::int32_t>(sf) != rows)
            throw std::runtime_error(
                "restart: shard rows differ from the manifest");
        const std::size_t count = static_cast<std::size_t>(rows) * nx;
        const std::size_t at = static_cast<std::size_t>(row0) * nx;
        for (auto* field : {&gh, &ghu, &ghv}) {
            if (version == kRestartV1) {
                sf.read(reinterpret_cast<char*>(field->data() + at),
                        static_cast<std::streamsize>(count *
                                                     sizeof(storage_t)));
                if (!sf)
                    throw std::runtime_error("restart: truncated shard");
            } else {
                const std::vector<double> wide =
                    io::read_compressed_array(sf, count);
                for (std::size_t k = 0; k < count; ++k)
                    (*field)[at + k] = static_cast<storage_t>(wide[k]);
            }
        }
    }

    // Scatter the global rows into this solver's stripes — which need
    // not match the writer's. Ghost columns are mirrored now (the sweep
    // reads them before any exchange); ghost rows refresh through the
    // first step's halo exchange, exactly as after initialize_dam_break.
    for (Rank& rk : ranks_) {
        for (int j = 0; j < rk.rows; ++j) {
            const std::size_t at =
                static_cast<std::size_t>(rk.row0 + j) * nx;
            std::memcpy(rk.h.data() + idx(j + 1, 1), gh.data() + at,
                        nx * sizeof(storage_t));
            std::memcpy(rk.hu.data() + idx(j + 1, 1), ghu.data() + at,
                        nx * sizeof(storage_t));
            std::memcpy(rk.hv.data() + idx(j + 1, 1), ghv.data() + at,
                        nx * sizeof(storage_t));
            mirror_ghost_columns(rk.h, rk.hu, rk.hv, j + 1);
        }
        rk.cost_seconds = 0.0;
    }
    time_ = m_time;
    step_count_ = m_step;
}

template class DistributedShallowSolver<fp::MinimumPrecision>;
template class DistributedShallowSolver<fp::MixedPrecision>;
template class DistributedShallowSolver<fp::FullPrecision>;

}  // namespace tp::par
