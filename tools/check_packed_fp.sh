#!/usr/bin/env bash
# Count packed floating-point arithmetic per kernel instantiation in an
# object file, and fail unless every instantiation holds some.
#
#   tools/check_packed_fp.sh OBJECT
#
# Scans every instantiation of the CLAMR flux kernels (tile_block,
# flux_block_gather) and the SEM micro-kernels (volume_element,
# gradient_element, filter_element) in OBJECT; out-of-line clones of a
# kernel's lambdas count toward the kernel that owns them. Prints one line
# per instantiation and exits 1 if any holds no packed
# add/sub/mul/div/sqrt/min/max/fma, or if OBJECT holds no instantiation at
# all. Run on solver.cpp.o or dgsem.cpp.o (the native, W > 1 kernels) it
# must pass; solver.cpp.o holds 16 flux instantiations, each policy's
# tile_block and flux_block_gather at compute_t and at the other float
# type a governed step computes in. On flux_scalar.cpp.o (the W == 1 flux
# kernels, compiled with the auto-vectorizer off) it must fail.
set -euo pipefail

obj=${1:?usage: check_packed_fp.sh OBJECT}
objdump -d -C --no-show-raw-insn "$obj" | awk '
    # A symbol header: "<addr> <demangled name>:". The instantiation it
    # belongs to is the first kernel template-id in the name.
    /^[0-9a-f]+ <.*>:$/ {
        key = ""
        if (match($0, /(tile_block|flux_block_gather|volume_element|gradient_element|filter_element)<[^>]*>/)) {
            key = substr($0, RSTART, RLENGTH)
            if (!(key in packed)) { packed[key] = 0; order[n++] = key }
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
            printf "%6d packed FP  %s\n", packed[order[i]], order[i]
            if (packed[order[i]] == 0) bad = 1
        }
        if (n == 0) { print "no kernel instantiation found"; exit 1 }
        if (bad) { print "an instantiation holds no packed FP arithmetic"; exit 1 }
    }'
