#pragma once
// Configuration for the spectral-element compressible-flow solver (the
// SELF analogue): atmosphere constants, bubble initial condition, mesh and
// discretization parameters.

namespace tp::sem {

/// Dry-air ideal-gas atmosphere with a constant-potential-temperature
/// (neutrally stratified) hydrostatic base state — the background the
/// paper's rising warm blob sits in.
struct Atmosphere {
    double gravity = 9.80665;   ///< m/s^2
    double gas_constant = 287.0;  ///< R for dry air, J/(kg K)
    double gamma = 1.4;
    double p0 = 1.0e5;          ///< surface pressure, Pa
    double theta0 = 300.0;      ///< background potential temperature, K

    [[nodiscard]] double cp() const {
        return gamma * gas_constant / (gamma - 1.0);
    }
    /// Exner pressure of the hydrostatic base state at height z.
    [[nodiscard]] double exner(double z) const {
        return 1.0 - gravity * z / (cp() * theta0);
    }
    [[nodiscard]] double pressure(double z) const;
    [[nodiscard]] double temperature(double z) const {
        return theta0 * exner(z);
    }
    [[nodiscard]] double density(double z) const {
        return pressure(z) / (gas_constant * temperature(z));
    }
    /// Internal energy density of the base state (velocity is zero).
    [[nodiscard]] double energy(double z) const {
        return pressure(z) / (gamma - 1.0);
    }
    [[nodiscard]] double sound_speed(double z) const;

    /// Density of air at base-state pressure p(z) but potential temperature
    /// theta0 + dtheta — how the warm bubble perturbs the density field.
    [[nodiscard]] double density_at_theta(double z, double dtheta) const;
};

/// Cosine-squared warm bubble (the standard rising-thermal benchmark shape,
/// cf. the paper's reference [31]).
struct ThermalBubble {
    double dtheta = 0.5;     ///< peak potential-temperature excess, K
    double radius = 250.0;   ///< m
    double center_z = 350.0; ///< m; x and y centered in the domain
};

/// Discretization configuration. The paper's full run uses 20^3 elements at
/// order 7 (~24M degrees of freedom); defaults here are laptop-sized and
/// every bench prints the scale it ran.
struct SemConfig {
    int nx = 4, ny = 4, nz = 4;   ///< elements per direction
    int order = 7;                ///< polynomial order N (N+1 nodes/dir)
    double lx = 1000.0, ly = 1000.0, lz = 1000.0;  ///< domain extent, m
    Atmosphere atm;
    double courant = 0.3;
    int filter_interval = 1;      ///< steps between modal filter sweeps
    int filter_cutoff = 4;        ///< highest untouched mode
    double filter_alpha = 36.0;
    int filter_exponent = 16;
    /// Dynamic viscosity mu (Pa s). Zero selects the inviscid (Euler +
    /// filter) path; positive values enable the BR1 viscous terms of the
    /// compressible Navier-Stokes equations SELF solves.
    double viscosity = 0.0;
    double prandtl = 0.72;        ///< Pr = mu cp / k for the heat flux
};

}  // namespace tp::sem
