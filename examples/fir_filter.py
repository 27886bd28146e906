#!/usr/bin/env python3
"""FIR filtering on approximate accumulators (DSP, the paper's §1 domain).

Runs a fixed-point low-pass FIR over a noisy tone with the accumulation
datapath approximated three different ways, and connects each design
back to the library's analytical predictions:

* approximate cells in the CSA reduction tree,
* approximate low bits of the final carry-propagate adder,
* a GeAr final adder, with and without error correction.

Run:  python examples/fir_filter.py
"""

import numpy as np

from repro.apps.dsp import (
    fir_filter,
    fir_quality_experiment,
    lowpass_taps,
    make_tone,
    quantize,
    snr_db,
)
from repro import engine
from repro.apps.imaging import lsb_approximate_chain
from repro.core.adder_zoo import from_gear
from repro.engine import AnalysisRequest
from repro.gear.config import GeArConfig
from repro.gear.correction import corrected_error_probability
from repro.multiop.compressor import reduction_final_width
from repro.reporting import ascii_table

INPUT_BITS = 6
NUM_TAPS = 5
LENGTH = 160


def main() -> None:
    samples = quantize(
        make_tone(LENGTH, 0.04, noise_level=0.25, seed=3), INPUT_BITS
    )
    taps = lowpass_taps(NUM_TAPS, 0.12, INPUT_BITS)
    reference = fir_filter(samples, taps, INPUT_BITS)
    final_width = reduction_final_width(NUM_TAPS, 2 * INPUT_BITS)
    print(f"{NUM_TAPS}-tap FIR, {INPUT_BITS}-bit samples, "
          f"{final_width}-bit final accumulation adder\n")

    # 1. Where to approximate? Tree cells vs final-adder LSBs.
    rows = []
    for label, kwargs in [
        ("LPAA 6 compressors", dict(compress_cell="LPAA 6")),
        ("LPAA 6 final adder, low 4 bits",
         dict(final_adder=lsb_approximate_chain("LPAA 6", final_width, 4))),
        ("LPAA 6 final adder, low 8 bits",
         dict(final_adder=lsb_approximate_chain("LPAA 6", final_width, 8))),
        ("LPAA 5 final adder, low 4 bits",
         dict(final_adder=lsb_approximate_chain("LPAA 5", final_width, 4))),
    ]:
        output = fir_filter(samples, taps, INPUT_BITS, **kwargs)
        rows.append([label, snr_db(reference, output)])
    print(ascii_table(
        ["datapath variant", "SNR dB"], rows, digits=2,
        title="Output quality by approximation site",
    ))
    print()

    # 2. The analytical-RMS-predicts-SNR pairing across cells.
    rows = []
    for cell in ("LPAA 1", "LPAA 5", "LPAA 6", "LPAA 7"):
        rms, quality = fir_quality_experiment(
            cell, approx_bits=6, input_bits=INPUT_BITS,
            num_taps=NUM_TAPS, signal_length=LENGTH,
        )
        rows.append([cell, rms, quality])
    rows.sort(key=lambda r: r[1])
    print(ascii_table(
        ["cell (6 approx LSBs)", "analytical RMS", "measured SNR dB"],
        rows, digits=2,
        title="Analytical error magnitude vs application quality",
    ))
    print()

    # 3. A GeAr adder in a post-filter smoothing stage:
    #    y[i] = (out[i] + out[i+1]) / 2 -- real carries cross the
    #    sub-adder boundaries here, so prediction misses show up, and
    #    one block of error correction recovers most of the quality.
    config = next(
        c for c in GeArConfig.valid_configs(final_width)
        if not c.is_exact and c.p >= 3 and c.num_subadders >= 3
    )
    from repro.gear.correction import gear_add_corrected
    from repro.gear.functional import gear_add

    exact_smooth = (reference[:-1] + reference[1:]) // 2

    def smooth(add):
        out = np.empty(reference.size - 1, dtype=np.int64)
        for i in range(out.size):
            out[i] = add(int(reference[i]), int(reference[i + 1])) // 2
        return out

    gear_plain = smooth(lambda x, y: gear_add(config, x, y))
    gear_fixed = smooth(
        lambda x, y: gear_add_corrected(config, x, y, budget=1)[0]
    )
    print(ascii_table(
        ["smoothing adder", "P(Error) analytical", "SNR dB"],
        [
            [config.describe(),
             engine.run(AnalysisRequest.zoo(from_gear(config))).p_error,
             snr_db(exact_smooth, gear_plain)],
            [config.describe() + " + 1 correction",
             corrected_error_probability(config, 1),
             snr_db(exact_smooth, gear_fixed)],
        ],
        digits=4,
        title="GeAr in a smoothing stage, with and without correction",
    ))


if __name__ == "__main__":
    main()
