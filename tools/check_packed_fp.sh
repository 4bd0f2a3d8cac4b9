#!/usr/bin/env bash
# Census of packed floating-point arithmetic in the hot loops: every
# instantiation of every hot-loop family in the three kernel objects of a
# build tree must hold some.
#
#   tools/check_packed_fp.sh [BUILD_DIR]     # default: build
#
# Counts the packed add/sub/mul/div/sqrt/min/max/fma instructions of each
# instantiation and prints one line per instantiation. Exits 1 if one holds
# none, or if a family has fewer instantiations than the census calls at
# the bottom list, so a rename or a dropped policy cannot shrink the
# census. The families: in solver.cpp.o the CLAMR flux kernels (per
# policy, at compute_t and at the other float type a governed step uses)
# and the OpenMP bodies of compute_dt and apply_update; in
# dist_shallow.cpp.o the row kernels and precompute_rows (which holds the
# inlined dist_pre_row); in dgsem.cpp.o the SEM micro-kernels and the
# OpenMP bodies of compute_dt and rk_stage.
#
# Out-of-line clones of a kernel's lambdas, and a template's OpenMP body,
# count toward the instantiation that owns them. CLAMR's compute_dt and
# apply_update are exempt at HalfStoragePrecision (storage tp::fp::Half):
# its conversions call the out-of-line Half::decode/encode, and it is not
# one of the paper's policies. Not in the census yet: SEM's surface_kernel,
# which holds no packed FP in any of its 6 instantiations (ROADMAP item 2).
set -euo pipefail

build=${1:-build}
status=0

# census OBJECT FAMILY... where FAMILY is "label|min|exempt|regex": the
# instantiation key is the regex match up to its first "(", and keys
# matching a nonempty exempt pattern are listed but not judged.
census() {
    local obj=$1
    shift
    if [ ! -f "$obj" ]; then
        echo "missing object: $obj" >&2
        return 1
    fi
    echo "== $obj"
    objdump -d -C --no-show-raw-insn "$obj" |
        FAMILIES="$(printf '%s\n' "$@")" awk '
        BEGIN {
            nf = split(ENVIRON["FAMILIES"], lines, "\n")
            for (f = 1; f <= nf; f++) {
                split(lines[f], col, "|")
                label[f] = col[1]; want[f] = col[2]
                exempt[f] = col[3]; re[f] = col[4]
            }
        }
        # A symbol header: "<addr> <demangled name>:". It belongs to the
        # first family whose pattern it matches.
        /^[0-9a-f]+ <.*>:$/ {
            key = ""
            for (f = 1; f <= nf; f++) {
                if (!match($0, re[f])) continue
                key = substr($0, RSTART, RLENGTH)
                sub(/\(.*/, "", key)
                if (!(key in packed)) {
                    packed[key] = 0; family[key] = f; order[n++] = key
                }
                break
            }
            next
        }
        key != "" &&
            $0 ~ /[ \t]v?(add|sub|mul|div|sqrt|min|max|fmadd[0-9]*|fmsub[0-9]*|fnmadd[0-9]*)p[sdh][ \t]/ {
            packed[key]++
        }
        END {
            bad = 0
            for (i = 0; i < n; i++) {
                k = order[i]; f = family[k]
                if (exempt[f] != "" && k ~ exempt[f]) {
                    printf "%6d packed FP  %s  (exempt)\n", packed[k], k
                    continue
                }
                printf "%6d packed FP  %s\n", packed[k], k
                found[f]++
                if (packed[k] == 0) bad = 1
            }
            for (f = 1; f <= nf; f++) {
                if (found[f] + 0 < want[f]) {
                    printf "family %s: %d instantiations, expected %d\n",
                        label[f], found[f], want[f]
                    bad = 1
                }
            }
            if (bad) { print "the census fails"; exit 1 }
        }'
}

census "$build/src/shallow/CMakeFiles/tp_shallow.dir/solver.cpp.o" \
    'tile_block|8||tile_block<[^>]*>' \
    'flux_block_gather|8||flux_block_gather<[^>]*>' \
    'compute_dt|3|HalfStoragePrecision|ShallowWaterSolver<[^>]*>::compute_dt\(\) \[clone \._omp_fn' \
    'apply_update|3|tp::fp::Half|apply_update<[^>]*>' ||
    status=1
census "$build/src/par/CMakeFiles/tp_par.dir/dist_shallow.cpp.o" \
    'dist_update_row|3||dist_update_row<[^>]*>' \
    'precompute_rows|3||DistributedShallowSolver<[^>]*>::precompute_rows\(' ||
    status=1
census "$build/src/sem/CMakeFiles/tp_sem.dir/dgsem.cpp.o" \
    'volume_element|24||volume_element<[^>]*>' \
    'gradient_element|12||gradient_element<[^>]*>' \
    'filter_element|9||filter_element<[^>]*>' \
    'compute_dt|3||SpectralEulerSolver<[^>]*>::compute_dt\(\) \[clone \._omp_fn' \
    'rk_stage|3||SpectralEulerSolver<[^>]*>::rk_stage\([^)]*\) \[clone \._omp_fn' ||
    status=1
exit $status
