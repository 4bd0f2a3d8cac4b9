#pragma once
// Configuration types for the CLAMR-analogue shallow-water mini-app.

#include "mesh/amr_mesh.hpp"
#include "simd/dispatch.hpp"

namespace tp::shallow {

/// Solver configuration. Defaults reproduce the paper's cylindrical
/// dam-break setup at laptop scale; the benches override sizes per table.
struct Config {
    mesh::MeshGeometry geom{0.0, 0.0, 100.0, 100.0, 64, 64, 2};
    double gravity = 9.80665;
    double courant = 0.20;        ///< CFL number (paper holds this fixed
                                  ///< across resolutions in Fig. 3)
    int rezone_interval = 4;      ///< steps between AMR adapt calls
    double refine_threshold = 0.02;   ///< relative height jump to refine
    double coarsen_threshold = 0.004; ///< relative height jump to coarsen
    simd::Mode simd = simd::Mode::Auto;  ///< pack-vectorized or scalar
                                         ///< finite_diff kernel (runtime
                                         ///< --simd=auto|scalar|native);
                                         ///< both paths are bit-identical
};

/// Cylindrical dam break initial condition: a column of water of height
/// `h_inside` and radius `radius` centered in the domain over a background
/// of `h_outside`, at rest. This is CLAMR's standard demonstration problem.
struct DamBreak {
    double h_inside = 80.0;
    double h_outside = 10.0;
    double radius_fraction = 0.2;  ///< radius as a fraction of min extent
};

}  // namespace tp::shallow
