#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "fp/metrics.hpp"
#include "sem/dgsem.hpp"

namespace tse = tp::sem;
namespace tf = tp::fp;

namespace {

tse::SemConfig tiny(int n = 3, int order = 4) {
    tse::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = n;
    cfg.order = order;
    return cfg;
}

}  // namespace

// -------------------------------------------------------------- atmosphere
TEST(Atmosphere, HydrostaticRelationsConsistent) {
    const tse::Atmosphere atm;
    EXPECT_NEAR(atm.pressure(0.0), atm.p0, 1e-9);
    EXPECT_NEAR(atm.temperature(0.0), atm.theta0, 1e-12);
    // dp/dz = -rho g (finite-difference check at several heights).
    for (const double z : {100.0, 400.0, 800.0}) {
        const double h = 0.01;
        const double dpdz =
            (atm.pressure(z + h) - atm.pressure(z - h)) / (2 * h);
        EXPECT_NEAR(dpdz, -atm.density(z) * atm.gravity,
                    1e-6 * atm.p0 / 100.0);
    }
    // Warmer air is lighter.
    EXPECT_LT(atm.density_at_theta(350.0, 0.5), atm.density(350.0));
    EXPECT_DOUBLE_EQ(atm.density_at_theta(350.0, 0.0), atm.density(350.0));
    // Sound speed ~ 347 m/s at 300 K.
    EXPECT_NEAR(atm.sound_speed(0.0), 347.2, 0.5);
}

// ---------------------------------------------------------------- balance
template <typename Policy>
class SemPolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<tf::MinimumPrecision, tf::MixedPrecision,
                                  tf::FullPrecision>;
TYPED_TEST_SUITE(SemPolicyTest, Policies);

TYPED_TEST(SemPolicyTest, HydrostaticBaseStatePreserved) {
    // Well-balanced property: zero perturbation must stay (near) zero.
    tse::SpectralEulerSolver<TypeParam> s(tiny());
    tse::ThermalBubble none;
    none.dtheta = 0.0;
    s.initialize_thermal_bubble(none);
    s.run(5);
    const double scale = s.config().atm.density(0.0);
    // The base state itself is stored in storage_t, so float storage
    // bounds the achievable balance regardless of compute precision.
    const double tol =
        sizeof(typename TypeParam::storage_t) == 4 ? 1e-5 : 1e-12;
    EXPECT_LT(s.max_abs(tse::RHO) / scale, tol);
}

TYPED_TEST(SemPolicyTest, MassPerturbationConserved) {
    tse::SpectralEulerSolver<TypeParam> s(tiny());
    s.initialize_thermal_bubble({});
    const double m0 = s.total_mass_perturbation();
    ASSERT_NE(m0, 0.0);
    s.run(10);
    const double m1 = s.total_mass_perturbation();
    const double tol =
        sizeof(typename TypeParam::storage_t) == 4 ? 2e-4 : 1e-10;
    EXPECT_NEAR(m1 / m0, 1.0, tol);
}

TYPED_TEST(SemPolicyTest, BubbleBeginsToRise) {
    // Buoyancy check: after some steps the bubble region gains upward
    // momentum (m_z > 0 somewhere) and total |m_z| grows from zero.
    tse::SpectralEulerSolver<TypeParam> s(tiny());
    s.initialize_thermal_bubble({});
    EXPECT_EQ(s.max_abs(tse::MZ), 0.0);
    s.run(10);
    EXPECT_GT(s.max_abs(tse::MZ), 0.0);
    // The density anomaly stays negative (warm air lighter) at center.
    const double rc =
        s.interpolate(tse::RHO, 500.0, 500.0, 350.0);
    EXPECT_LT(rc, 0.0);
}

// --------------------------------------------------------------- precision
TEST(SemSolver, SingleAndDoubleAgreeClosely) {
    // Figure 4's result: SP and DP line-outs are visually identical with
    // differences orders of magnitude below the anomaly.
    tse::SingleSemSolver ss(tiny());
    tse::DoubleSemSolver sd(tiny());
    ss.initialize_thermal_bubble({});
    sd.initialize_thermal_bubble({});
    ss.run(15);
    sd.run(15);
    const auto a = sd.sample_density_anomaly_x(500.0, 350.0, 65);
    const auto b = ss.sample_density_anomaly_x(500.0, 350.0, 65);
    const auto m = tf::compare(a, b);
    EXPECT_GT(m.digits_of_agreement(), 3.0);
}

TEST(SemSolver, StateBytesScaleWithPrecision) {
    tse::SingleSemSolver ss(tiny());
    tse::DoubleSemSolver sd(tiny());
    EXPECT_LT(ss.state_bytes(), sd.state_bytes());
    EXPECT_EQ(ss.snapshot_bytes() * 2, sd.snapshot_bytes() + 64);
}

// ------------------------------------------------------------- diagnostics
TEST(SemSolver, LedgerCoversAllKernels) {
    tse::DoubleSemSolver s(tiny(2, 3));
    s.initialize_thermal_bubble({});
    s.run(3);
    for (const char* k : {"volume", "surface", "rk_update", "cfl", "filter"}) {
        const auto* w = s.ledger().find(k);
        ASSERT_NE(w, nullptr) << k;
        EXPECT_GT(w->invocations, 0u) << k;
        EXPECT_GT(w->bytes, 0u) << k;
    }
    // 3 RK stages per step -> volume runs 3x per step.
    EXPECT_EQ(s.ledger().find("volume")->invocations, 9u);
    EXPECT_EQ(s.ledger().find("cfl")->invocations, 3u);
}

TEST(SemSolver, DofCountMatchesConfig) {
    tse::DoubleSemSolver s(tiny(3, 4));
    EXPECT_EQ(s.num_nodes(), 27u * 125u);
    EXPECT_EQ(s.degrees_of_freedom(), 27u * 125u * 5u);
}

TEST(SemSolver, PaperScaleDofFormula) {
    // The paper's run: 20^3 elements x 8^3 points ~ 24.6M "degrees of
    // freedom" counting nodes x variables / ... (they quote ~24M for the
    // grid). Verify our accounting reproduces the quoted magnitude.
    tse::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 20;
    cfg.order = 7;
    const std::size_t nodes = 20u * 20u * 20u * 8u * 8u * 8u;
    EXPECT_EQ(nodes, 4096000u);  // 4.1M nodes -> 20.5M DOF over 5 fields
    (void)cfg;
}

TEST(SemSolver, InterpolateRejectsBadVariable) {
    tse::DoubleSemSolver s(tiny(2, 2));
    s.initialize_thermal_bubble({});
    EXPECT_THROW((void)s.interpolate(-1, 1.0, 1.0, 1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)s.interpolate(5, 1.0, 1.0, 1.0),
                 std::invalid_argument);
}

TEST(SemSolver, InterpolationMatchesNodeValues) {
    tse::DoubleSemSolver s(tiny(2, 3));
    s.initialize_thermal_bubble({});
    // Sampling the initial condition at the bubble center returns (close
    // to) the analytic anomaly there.
    const auto& atm = s.config().atm;
    const double want =
        atm.density_at_theta(350.0, 0.5) - atm.density(350.0);
    const double got = s.interpolate(tse::RHO, 500.0, 500.0, 350.0);
    EXPECT_NEAR(got, want, std::fabs(want) * 0.05);
}

TEST(SemSolver, RejectsBadConfig) {
    tse::SemConfig bad = tiny();
    bad.nx = 0;
    EXPECT_THROW(tse::DoubleSemSolver{bad}, std::invalid_argument);
    bad = tiny();
    bad.order = 0;
    EXPECT_THROW(tse::DoubleSemSolver{bad}, std::invalid_argument);
}

TEST(SemSolver, TimestepPositiveAndStable) {
    tse::DoubleSemSolver s(tiny(2, 4));
    s.initialize_thermal_bubble({});
    const double dt = s.step();
    EXPECT_GT(dt, 0.0);
    // ~ C * dx_node / c_sound: dx_elem = 500, node gap factor for N=4.
    EXPECT_LT(dt, 1.0);
    // No blow-up over more steps.
    s.run(10);
    EXPECT_LT(s.max_abs(tse::RHO), 1.0);
    EXPECT_TRUE(std::isfinite(s.max_abs(tse::MZ)));
}

// ----------------------------------------------------------- viscous terms
namespace {

/// Taylor-Green vortex in the (x,z) plane, tangential at every free-slip
/// wall, over the hydrostatic base state. Each velocity component obeys the
/// diffusion equation with k^2 = (pi/Lx)^2 + (pi/Lz)^2, so kinetic energy
/// decays as exp(-2 nu k^2 t) — an analytic target for the BR1 terms.
tse::SemConfig tg_config(double viscosity) {
    tse::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    cfg.order = 5;
    cfg.lx = cfg.ly = cfg.lz = 100.0;
    cfg.viscosity = viscosity;
    cfg.filter_interval = 0;  // isolate physical dissipation
    return cfg;
}

template <typename Solver>
void init_taylor_green(Solver& s, double u0) {
    const auto& cfg = s.config();
    const double lx = cfg.lx, lz = cfg.lz;
    const tse::Atmosphere atm = cfg.atm;
    s.initialize_custom([&](double x, double, double z, double* q) {
        const double rho = atm.density(z);
        const double u =
            u0 * std::sin(std::numbers::pi * x / lx) *
            std::cos(std::numbers::pi * z / lz);
        const double w =
            -u0 * (lz / lx) * std::cos(std::numbers::pi * x / lx) *
            std::sin(std::numbers::pi * z / lz);
        q[0] = 0.0;            // rho'
        q[1] = rho * u;        // m_x
        q[2] = 0.0;            // m_y
        q[3] = rho * w;        // m_z
        // Keep pressure (hence temperature) unperturbed: E' = kinetic part.
        q[4] = 0.5 * rho * (u * u + w * w);
    });
}

}  // namespace

TEST(SemViscous, TaylorGreenDecayMatchesAnalyticRate) {
    const double nu = 72.0;             // kinematic, m^2/s
    const double rho0 = tse::Atmosphere{}.density(50.0);  // mid-domain
    auto cfg = tg_config(nu * rho0);    // config takes dynamic viscosity
    tse::DoubleSemSolver s(cfg);
    init_taylor_green(s, 0.05);
    const double ke0 = s.kinetic_energy();
    ASSERT_GT(ke0, 0.0);
    s.run(60);
    const double k2 = 2.0 * std::numbers::pi * std::numbers::pi /
                      (cfg.lx * cfg.lx);
    const double expected = std::exp(-2.0 * nu * k2 * s.time());
    const double got = s.kinetic_energy() / ke0;
    EXPECT_NEAR(got, expected, 0.05 * expected)
        << "t=" << s.time() << " expected " << expected << " got " << got;
}

TEST(SemViscous, InviscidRunConservesKineticEnergyFarBetter) {
    auto cfg = tg_config(0.0);
    tse::DoubleSemSolver inviscid(cfg);
    init_taylor_green(inviscid, 0.05);
    const double ke0 = inviscid.kinetic_energy();
    inviscid.run(60);
    const double inviscid_loss =
        1.0 - inviscid.kinetic_energy() / ke0;

    const double rho0 = tse::Atmosphere{}.density(50.0);
    auto vcfg = tg_config(72.0 * rho0);
    tse::DoubleSemSolver viscous(vcfg);
    init_taylor_green(viscous, 0.05);
    viscous.run(60);
    const double viscous_loss = 1.0 - viscous.kinetic_energy() / ke0;

    EXPECT_LT(std::fabs(inviscid_loss), 0.02);
    EXPECT_GT(viscous_loss, 5.0 * std::fabs(inviscid_loss));
}

TEST(SemViscous, HydrostaticBalancePreservedWithViscosity) {
    // The base state has zero velocity and a linear temperature profile;
    // both stress and heat-flux divergence vanish, so balance must hold.
    auto cfg = tg_config(50.0);
    tse::DoubleSemSolver s(cfg);
    tse::ThermalBubble none;
    none.dtheta = 0.0;
    s.initialize_thermal_bubble(none);
    s.run(5);
    EXPECT_LT(s.max_abs(tse::RHO) / cfg.atm.density(0.0), 1e-10);
}

TEST(SemViscous, MassConservedWithViscosity) {
    const double rho0 = tse::Atmosphere{}.density(50.0);
    auto cfg = tg_config(72.0 * rho0);
    tse::DoubleSemSolver s(cfg);
    init_taylor_green(s, 0.05);
    const double m0 = s.total_mass_perturbation();
    s.run(30);
    // Viscous fluxes carry no mass; the integral of rho' stays put.
    EXPECT_NEAR(s.total_mass_perturbation() - m0, 0.0, 1e-8);
}

TEST(SemViscous, LedgerRecordsViscousKernels) {
    auto cfg = tg_config(10.0);
    tse::DoubleSemSolver s(cfg);
    init_taylor_green(s, 0.05);
    s.run(2);
    ASSERT_NE(s.ledger().find("gradient"), nullptr);
    ASSERT_NE(s.ledger().find("viscous"), nullptr);
    EXPECT_EQ(s.ledger().find("gradient")->invocations, 6u);  // 3 stages x 2
}

TEST(SemViscous, SinglePrecisionDecayTracksDouble) {
    const double rho0 = tse::Atmosphere{}.density(50.0);
    auto cfg = tg_config(72.0 * rho0);
    tse::DoubleSemSolver sd(cfg);
    tse::SingleSemSolver ss(cfg);
    init_taylor_green(sd, 0.05);
    init_taylor_green(ss, 0.05);
    const double ke0 = sd.kinetic_energy();
    sd.run(30);
    ss.run(30);
    EXPECT_NEAR(ss.kinetic_energy() / ke0, sd.kinetic_energy() / ke0,
                1e-3);
}

// ------------------------------------------------- spectral convergence
namespace {

/// Standing acoustic wave in a gravity-free uniform medium:
///   p'(x,t) = A cos(kx) cos(ckt),  u(x,t) = (A/(rho c)) sin(kx) sin(ckt)
/// with k = pi/Lx, which satisfies the wall conditions u(0)=u(L)=0. After
/// half a period the pressure field is exactly negated — an analytic
/// target for measuring the discretization error as a function of order.
double acoustic_halfperiod_error(int order) {
    tse::SemConfig cfg;
    cfg.nx = 2;
    cfg.ny = cfg.nz = 1;
    cfg.order = order;
    cfg.lx = cfg.ly = cfg.lz = 100.0;
    cfg.atm.gravity = 0.0;          // uniform background
    cfg.filter_interval = 0;        // measure the scheme, not the filter
    cfg.courant = 0.15;             // keep RK3 time error subdominant

    const double c = cfg.atm.sound_speed(0.0);
    const double k = std::numbers::pi / cfg.lx;
    const double amp = 10.0;        // Pa, linear regime vs p0 = 1e5
    const double gamma = cfg.atm.gamma;

    tse::DoubleSemSolver s(cfg);
    s.initialize_custom([&](double x, double, double, double* q) {
        const double p = amp * std::cos(k * x);
        q[0] = p / (c * c);          // rho' for an isentropic disturbance
        q[4] = p / (gamma - 1.0);    // E' (velocity zero)
    });

    const double t_end = std::numbers::pi / (c * k);  // half period
    while (s.time() < t_end) s.step();
    // Land exactly on t_end is impossible with CFL stepping; evaluate the
    // analytic solution at the time actually reached instead.
    const double phase = std::cos(c * k * s.time());

    double linf = 0.0;
    for (int i = 0; i < 33; ++i) {
        const double x = (i + 0.5) * cfg.lx / 33.0;
        const double want = phase * amp * std::cos(k * x) / (c * c);
        const double got = s.interpolate(tse::RHO, x, 50.0, 50.0);
        linf = std::max(linf, std::fabs(got - want));
    }
    return linf * (c * c) / amp;  // relative to the wave amplitude
}

}  // namespace

TEST(SemConvergence, AcousticWaveErrorFallsWithOrder) {
    const double e2 = acoustic_halfperiod_error(2);
    const double e4 = acoustic_halfperiod_error(4);
    const double e6 = acoustic_halfperiod_error(6);
    // Spectral-type convergence: each +2 in order buys well over an order
    // of magnitude on this smooth solution.
    EXPECT_LT(e4, e2 / 10.0) << "e2=" << e2 << " e4=" << e4;
    EXPECT_LT(e6, e4 / 2.0) << "e4=" << e4 << " e6=" << e6;
    EXPECT_LT(e6, 2e-4);
    EXPECT_GT(e2, 1e-4);  // coarse order genuinely worse
}

// --------------------------------------------------- more solver behavior
TEST(SemSolver, BubbleRiseHeightAgreesAcrossPrecisions) {
    // Physics-level agreement: track the height of the density-anomaly
    // minimum (the bubble core) after the same number of steps.
    auto locate_core = [](auto& s) {
        double best_z = 0.0, best_v = 0.0;
        for (int k = 0; k < 64; ++k) {
            const double z = (k + 0.5) * 1000.0 / 64.0;
            const double v = s.interpolate(tse::RHO, 500.0, 500.0, z);
            if (v < best_v) {
                best_v = v;
                best_z = z;
            }
        }
        return best_z;
    };
    tse::SingleSemSolver ss(tiny(3, 5));
    tse::DoubleSemSolver sd(tiny(3, 5));
    ss.initialize_thermal_bubble({});
    sd.initialize_thermal_bubble({});
    ss.run(30);
    sd.run(30);
    EXPECT_EQ(locate_core(ss), locate_core(sd));  // same sampled bin
}

TEST(SemSolver, MixedPolicyRunsAndTracksFull) {
    // The paper notes SELF "does not have a mixed-precision option
    // currently" — this repo's templated solver provides one.
    tse::MixedSemSolver sm(tiny());
    tse::DoubleSemSolver sd(tiny());
    sm.initialize_thermal_bubble({});
    sd.initialize_thermal_bubble({});
    sm.run(10);
    sd.run(10);
    const auto a = sd.sample_density_anomaly_x(500.0, 350.0, 33);
    const auto b = sm.sample_density_anomaly_x(500.0, 350.0, 33);
    EXPECT_GT(tf::compare(a, b).digits_of_agreement(), 3.0);
}

TEST(SemSolver, FilterRemovesTopModeInOneStep) {
    // The sharp (exponent-16) exponential filter leaves resolved modes
    // essentially untouched and annihilates the top Legendre mode
    // (sigma(N) = exp(-36) ~ 2e-16). Seed exactly that mode per element
    // and compare one filtered step against one unfiltered step.
    auto one_step = [](tse::SemConfig cfg) {
        const double de = cfg.lx / cfg.nx;
        const int order = cfg.order;
        tse::DoubleSemSolver s(cfg);
        s.initialize_custom([&](double x, double, double, double* q) {
            const double xi =
                2.0 * std::fmod(x, de) / de - 1.0;  // element coordinate
            q[1] = 0.01 * tse::legendre(order, xi).value;
        });
        s.run(1);
        return s.kinetic_energy();
    };
    auto cfg = tiny(2, 6);
    cfg.filter_interval = 1;
    const double filtered = one_step(cfg);
    cfg.filter_interval = 0;
    const double unfiltered = one_step(cfg);
    EXPECT_LT(filtered, 0.05 * unfiltered);
}

TEST(SemSolver, SamplePositionsCoverDomain) {
    tse::DoubleSemSolver s(tiny(2, 3));
    const auto xs = s.sample_positions_x(16);
    ASSERT_EQ(xs.size(), 16u);
    EXPECT_GT(xs.front(), 0.0);
    EXPECT_LT(xs.back(), s.config().lx);
    for (std::size_t k = 1; k < xs.size(); ++k)
        EXPECT_GT(xs[k], xs[k - 1]);
}

TEST(SemSolver, TotalMassPerturbationNegativeForWarmBubble) {
    tse::DoubleSemSolver s(tiny(2, 4));
    s.initialize_thermal_bubble({});
    EXPECT_LT(s.total_mass_perturbation(), 0.0);  // warm air is lighter
}
