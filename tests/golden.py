"""Frozen outputs that every interpreter must reproduce byte for byte.

GOLDEN holds the sha256 of each frozen CLI output and COMMANDS the command
behind it; DECAY_FIXTURES is acceptance criterion 7's record of the seeded
register experiment.  The module imports nothing, so that the pytest suites
and tools/golden_outputs.py, which runs without pytest, read the same data.
"""

# sha256 of frozen CLI outputs: the determinism tests only compare runs
# with each other, so they miss a change that alters every run
GOLDEN = {
    "curve-3/4-4096.csv": "d377ba8505ae1240bcd0bada0f1dd7e489e3862eeb641a461065974b11749d19",
    "curve-3/4-4096.svg": "4ac4235686dc7ec647c74038be3c9bd0f0e5cfe815584281f9dc19a66521e367",
    "curve--3/4-64-canonical.csv": "9ae292962bce0439118fd9503bb79052937539692e34e2322c283916298f12e9",
    "bridge-3/4-seed-42.json": "bfb398dda2e598b019f10a259422d533c8fa23a61b8e6a20da31cd7cee7f72c4",
    "bridge-2/3-seed-9.json": "52bbdd157c28d1eccaa7ab2d5edf5316dcbd0d8ab849256bda7f3545c61a386b",
    "verify-theorem1--2/3.json": "9afc049b1ad4eb899d51d038a3cda615ddf5404d1363043b9624c6ec7dadc9a6",
    "verify-prop1-3/4.json": "00f58d73d55093f730b8324e5f698462312c98db0953d0f650922fa03b1dd985",
    # phi differs from the target, and there is no target: the SVGs of the
    # cases whose polylines are not one column drawn twice
    "curve--3/4-64-canonical.svg": "29fc3a047f55ce8ef0b27b0996e2148d2b42a551460411e196cc8e0f39ece9a4",
    "curve-1/2-64-explore.svg": "fb0e205f625162999642a2809c87a8ab696c23f3f743902acc45e98097a7f984",
    "verify-prop1--2/3.json": "3a16ffd893df444c333ae7b32210862329d77c6f3ecdd0fe8f38532fad752eca",
    # levels whose factor comes from its exponents, +-1 / (|u|^(g-1) ...)
    # at both signs of u^(g-1), and at grid exponent 0 (two points, so
    # every sup distance is 0); and S_q in lowest terms at a 16607-bit n
    "bridge--3/4-seed-5-grid-7.json": "954d528e1ca53cfc86c6e1ffae68c30bb841c33788ba40b2d4b5397b6b4cd18e",
    "bridge--3/4-seed-5-grid-8.json": "c41c05fbcc23b4ce3098cd9d9411f57ea74a4e84e763510aea5f0c0b1972144d",
    "bridge-9/10-seed-1.json": "875219f1d85238e7cf2557ea50b576539e0386d6c255f0541d2d394db2f374fe",
    "bridge-3/4-seed-1-grid-0.json": "ff7b9e180e4a53b1a2e6d6e8fec513b219f8c9841bcbb08bef6e10c588627230",
    "eval-S-9/10-5000-digits": "01cf7ecbeaef10288224a6f783dc94772a701f0bcddc574b3b9d4410169e5e4f",
    # curves whose factor denominators carry odd primes, up to 65 bits, and
    # prop1's text report
    "curve-2/3-4096.csv": "d7e774b894f27ff56994f2a347441c20c123ce9c3f06b99072cb582e1449e13f",
    "curve-2/3-4096.svg": "793a6286fde547d3902617d85a527076efbf15a5b5f5be74a91992345adba0f1",
    "curve-9/10-4096.csv": "373a9d9e7a6c520eee8d7a30e185ef8065d5bc33ce5cd0058f3b0d7d3f102373",
    "curve-9/10-4096.svg": "fd3023ad3dc8ef5ddd7d0751d0641d8bc5b698b1b88e207d85ea187dbdd0bf84",
    "curve--2/3-4096.csv": "2d9d1dd6adf4489d62bd2380ead5ebf6fa4e7897b09eac0be787c589d7287145",
    "curve--2/3-4096.svg": "9bed8f7a4339482ec611911b0a986ba29f6d870dd0f756a1db3f02b13e9bd8c9",
    "verify-prop1-3/4.txt": "c359719869c8a739b17f7d2367d3e0491d41c125ab3b6d403fb327cfbaf8d16c",
    # the classical average at the most bits of n that eval td admits at
    # a = 1/2, as --classical and as --q 1, its other spelling; the digest
    # is that of the separate classical evaluator td_generalized replaced
    "eval-td-classical-4961-bits": "d379bb1e67c598e7bff483e7e38dba0481ffa2968362cb43cf452996c38306fa",
    "eval-td-1-4961-bits": "d379bb1e67c598e7bff483e7e38dba0481ffa2968362cb43cf452996c38306fa",
}


# key -> (argv, exit code, where): the argv of qdigits.cli.main whose output
# GOLDEN[key] digests, and where that output goes: "stdout", or "{out}" or
# "{svg}", placeholders in argv for the paths of the files it writes.  Keys
# with the same argv come from one run.
COMMANDS = {
    **{
        f"curve-{q}-4096.{kind}": (
            ["curve", f"--q={q}", "--l", "4096", "--out", "{out}", "--svg", "{svg}"], 0, where
        )
        for q in ("3/4", "2/3", "9/10", "-2/3")
        for kind, where in (("csv", "{out}"), ("svg", "{svg}"))
    },
    "curve--3/4-64-canonical.csv": (["curve", "--q=-3/4", "--l", "64", "--norm", "canonical"],
                                    0, "stdout"),
    "curve--3/4-64-canonical.svg": (["curve", "--l", "64", "--q=-3/4", "--norm", "canonical",
                                     "--svg", "{svg}"], 0, "{svg}"),
    "curve-1/2-64-explore.svg": (["curve", "--l", "64", "--q", "1/2", "--explore",
                                  "--svg", "{svg}"], 0, "{svg}"),
    "bridge-3/4-seed-42.json": (["bridge", "--q", "3/4", "--seed", "42"], 0, "stdout"),
    "bridge-2/3-seed-9.json": (["bridge", "--q", "2/3", "--seed", "9"], 0, "stdout"),
    "bridge--3/4-seed-5-grid-7.json": (["bridge", "--q=-3/4", "--seed", "5",
                                        "--grid-exponent", "7"], 0, "stdout"),
    "bridge--3/4-seed-5-grid-8.json": (["bridge", "--q=-3/4", "--seed", "5",
                                        "--grid-exponent", "8"], 0, "stdout"),
    "bridge-9/10-seed-1.json": (["bridge", "--q", "9/10", "--seed", "1"], 0, "stdout"),
    # exit 1: sup distances 0, 0, 0 do not decrease
    "bridge-3/4-seed-1-grid-0.json": (["bridge", "--q", "3/4", "--seed", "1",
                                       "--grid-exponent", "0"], 1, "stdout"),
    # n = 10^4999 + 12345
    "eval-S-9/10-5000-digits": (["eval", "S", "--q", "9/10", "--n", "1" + "0" * 4994 + "12345"],
                                0, "stdout"),
    "verify-theorem1--2/3.json": (["verify", "--suite", "theorem1", "--q=-2/3", "--json"],
                                  0, "stdout"),
    "verify-prop1-3/4.json": (["verify", "--suite", "prop1", "--q", "3/4", "--json"], 0, "stdout"),
    "verify-prop1-3/4.txt": (["verify", "--suite", "prop1", "--q", "3/4"], 0, "stdout"),
    "verify-prop1--2/3.json": (["verify", "--suite", "prop1", "--q=-2/3", "--json"], 0, "stdout"),
    # n = 3^3130, 4961 bits
    "eval-td-classical-4961-bits": (["eval", "td", "--classical", "--n", str(3**3130)], 0, "stdout"),
    "eval-td-1-4961-bits": (["eval", "td", "--q", "1", "--n", str(3**3130)], 0, "stdout"),
}

# First-run record of the seeded register experiment at q = 3/4,
# register length 8192, grid exponent 8: per seed and run length r,
# the stabilising level n, the sup distance as a float, and the first
# 16 hex digits of sha256 over the exact Fraction's string form.
DECAY_FIXTURES = {
    1: [
        (4, 43, 0.6015500114383122, "97d55a0e31bc8e26"),
        (8, 539, 0.14651195049378662, "c5e7fb34cddacd69"),
        (12, 8038, 0.009265922331018604, "6ae58de42c10aea9"),
    ],
    2: [
        (4, 160, 0.7180040510359164, "116c9c93f1ec68ff"),
        (8, 644, 0.09096514249047762, "b496bdc1497ef5dd"),
        (12, 6663, 0.007459427710446699, "60d549bf491425b0"),
    ],
    5: [
        (4, 42, 0.5949974730392518, "dd3d70c275ea10d9"),
        (8, 807, 0.14412380872575212, "b44af05995967089"),
        (12, 6409, 0.006218705230768383, "8b51251b95f1d0dd"),
    ],
    9: [
        (4, 23, 0.6691473944355629, "266a4a9fc7a3297a"),
        (8, 289, 0.13442819410271967, "cd279d4c37ff0dca"),
        (12, 4369, 0.005324498042146268, "1dd86965aa35e8b2"),
    ],
    42: [
        (4, 50, 0.5767472422614376, "eac3fc0d1d4f4286"),
        (8, 54, 0.11881788877314146, "770193ec2009b401"),
        (12, 7970, 0.005823243138357618, "c2e9f1b37ac083b4"),
    ],
}
