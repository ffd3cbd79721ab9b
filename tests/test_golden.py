"""Golden output digests: every byte the CLI prints or writes, frozen by sha256.

Each case runs ``rumorsim.cli.main`` in a fresh directory and hashes its
stdout and the CSV/JSON files it wrote.  Criterion 12 only compares re-runs
of one build; these digests compare builds, so a refactor that keeps them
keeps the program's output.  A digest may change only with a deliberate
behaviour change, and the table below changes in the same commit.
"""

from __future__ import annotations

import hashlib

import pytest

from rumorsim.cli import main

# explicit cyclic lists for the complete graph on 5 vertices
LISTS_FILE = "3,1,4,2\n0,2,4,3\n4,0,3,1\n1,4,0,2\n2,3,1,0\n"
SCHEDULE_FILE = "lazy,1\nbusy,2\nlazy,2\nbusy,40\n"
# zero-length phases at round 0, inside the schedule and at round 5
EDGE_SCHEDULE_FILE = "busy,0\nlazy,2\nbusy,0\nbusy,3\nlazy,0\nlazy,4\n"
CONFIG_FILE = (
    "# delayed run, every path relative to the working directory\n"
    "protocol=delayed\n"
    "topology=complete\n"
    "n=9\n"
    "p=0.6\n"
    "trials=20\n"
    "seed=2\n"
    "lists=random\n"
    "list_seed=4\n"
    "start=fixed:3\n"
    "max_rounds=80\n"
    "schedule=sched.txt\n"
    "out=out.csv\n"
    "summary=summary.json\n"
)
ARM_A = "protocol=random\nn=16\np=0.5\ntrials=20\nseed=1\n"
ARM_B = "protocol=quasi\nn=16\np=0.5\ntrials=20\nseed=1\n"
INPUTS = {
    "lists.txt": LISTS_FILE,
    "sched.txt": SCHEDULE_FILE,
    "edges.txt": EDGE_SCHEDULE_FILE,
    "exp.cfg": CONFIG_FILE,
    "a.cfg": ARM_A,
    "b.cfg": ARM_B,
}
OUTPUTS = ("out.csv", "summary.json")
SMALL = ("--n", "9", "--p", "0.6", "--trials", "20")
WRITE = ("--out", "out.csv", "--summary", "summary.json")

CASES = {
    f"sim-{protocol}-{topology}-{lists}": (
        "sim", "--protocol", protocol, "--topology", topology, "--lists", lists,
        "--list-seed", "3", "--seed", "5", *SMALL, *WRITE,
    )
    for protocol in ("random", "quasi", "feedback")
    for topology in ("complete", "star")
    for lists in ("canonical", "reversed", "random")
}
CASES.update({
    "sim-lists-file": (
        "sim", "--protocol", "quasi", "--n", "5", "--p", "0.6", "--trials", "20",
        "--seed", "9", "--lists", "file", "--lists-path", "lists.txt", "--start", "sweep",
        *WRITE,
    ),
    "sim-config-file": ("sim", "--config", "exp.cfg", "--trials", "15"),
    "phases-schedule": ("phases", *SMALL, "--seed", "6", "--schedule", "sched.txt", *WRITE),
    # the cap falls on a boundary: the zero-length phase there is recorded, the next is not
    "phases-cap-on-boundary": (
        "phases", *SMALL, "--seed", "6", "--max-rounds", "5", "--schedule", "edges.txt",
    ),
    # complete at round 0: only the leading zero-length phase is recorded
    "phases-complete-at-start": (
        "phases", "--n", "1", "--p", "0.6", "--trials", "3", "--seed", "6", "--schedule", "edges.txt",
    ),
    "phases-theoretical": ("phases", "--print-theoretical", "--n", "4096", "--p", "0.5"),
    "oracle-random": ("oracle", "--protocol", "random", "--n", "5", "--p", "0.6", "--horizon", "10"),
    "oracle-quasi": (
        "oracle", "--protocol", "quasi", "--n", "4", "--p", "0.6", "--horizon", "8",
        "--lists", "random", "--list-seed", "2", "--start", "fixed:1", "--out", "out.csv",
    ),
    "bounds-summary": ("bounds", "--n", "64", "--p", "0.5", "--eps", "0.2", "--summary", "summary.json"),
    "check-summary": (
        "check", "--protocol", "quasi", "--n", "32", "--p", "0.5", "--trials", "20",
        "--seed", "8", "--eps", "0.3", "--summary", "summary.json",
    ),
    "compare-summary": ("compare", "--config-a", "a.cfg", "--config-b", "b.cfg", "--summary", "summary.json"),
})

# case -> (exit code, {artifact: sha256 hex digest})
GOLDEN = {
    "bounds-summary": (
        0,
        {
            "stdout": "66d105cb15f519a6514cb1658decfeba6d3a42d7a70937afa3e80857c867e172",
            "summary.json": "f06fcf6269bcf5d2cf6a52c4eda41f6b00a0ca84006a658a5daef4411dcd9b63",
        },
    ),
    "check-summary": (
        3,
        {
            "stdout": "098540617a10b2da9ba04b97626d4b2e1a6f452194f8d59e4fad5e88a15e835d",
            "summary.json": "a053ab099c58a9ee047aa239242cd51c568d14d5f5512043170d0f0d91930175",
        },
    ),
    "compare-summary": (
        0,
        {
            "stdout": "efba21dfde523dec0f469c14e446800afa8eb74ebfbe1891e0be912888281fb8",
            "summary.json": "27b0bffb14a384027ae97351c39929d1a184e603919690cb589507be9a10f4a7",
        },
    ),
    "oracle-quasi": (
        0,
        {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "out.csv": "215de4e42056f9048f669b9a3be872163f7774a399d325e1f211f8cf7e33a345",
        },
    ),
    "oracle-random": (
        0,
        {
            "stdout": "c7b77af4f57e049c82a1f8d829447753a51c2c78d5a87a74ebd6229bd5bd7874",
        },
    ),
    "phases-cap-on-boundary": (
        0,
        {
            "stdout": "932d85106822ae10c06ba64f0228d176fab4fec12afed17c8e0bedda8993c42f",
        },
    ),
    "phases-complete-at-start": (
        0,
        {
            "stdout": "e5fa7944e1134539c3fa6e8dc01036322429bf3f2be9af059d1be9955741f932",
        },
    ),
    "phases-schedule": (
        0,
        {
            "stdout": "a723987b4529ed1da3ea82f3a09fcb747694129493f40c2f95176d858ee0cabd",
            "out.csv": "b75a9a2258e4651b335ac9a4be350add3883e3105149a3613a1e83f4c296e235",
            "summary.json": "088457d2a23f9265aefdc2f36b6603c34abdcab9af0cc19e34b3f7a99bfac1d0",
        },
    ),
    "phases-theoretical": (
        0,
        {
            "stdout": "a013b8b847f9e7201c59da125d26d1176cdb7b7ff99bd34e47e49f5296d25058",
        },
    ),
    "sim-config-file": (
        0,
        {
            "stdout": "d0d9fd902a59da51344a1176ef017350e8222c4ab9562aa12a5734bc285e69c4",
            "out.csv": "bd501b4b3ccc0fd1c4396f76827121da45a76f5145344411e2b657000250c44b",
            "summary.json": "0f08212f5a03d0eea19e5ed2565f79cd20b3f1fea4d59044caa499447d89c219",
        },
    ),
    "sim-feedback-complete-canonical": (
        0,
        {
            "stdout": "c189b79d8cc5544987bb94ef5cf3a41d67cdacd2cc51334d0b9dd1b89250e4fa",
            "out.csv": "5121eb2567dd8d3b9ce72dec04dafe9cac66a0cfb18887b943a52e4304a857a0",
            "summary.json": "4d10a0f057b29096c92c0b4493542d320b70c3f214cd59fa637b96572086dfcd",
        },
    ),
    "sim-feedback-complete-random": (
        0,
        {
            "stdout": "0908e98ca1a32940e4aa4b109fcb80d76f96f93abc1dd84ac9b93fb4a0e69d3a",
            "out.csv": "bc41e27e501bc5e82fc948d0783b9e6ff09fba51288ceb326136a5a020e6fbb4",
            "summary.json": "db69d9299b3a2b1e037c0332bedc550512d09c3e4a93f1ce064815d751b4107d",
        },
    ),
    "sim-feedback-complete-reversed": (
        0,
        {
            "stdout": "5bed38a5cea0aee2f406d0db9be6a92ae543a9b0619042a63a3b4eb342df8906",
            "out.csv": "ef1b7fe1f783cc17dec0abf7b6d1d64d769ebea47cd5027bf85d98ff06fb5d57",
            "summary.json": "99c470b966a558f69ad881b84988a9f8b8f0f9ecca1270dce3362eeea330f2c6",
        },
    ),
    "sim-feedback-star-canonical": (
        0,
        {
            "stdout": "818707300e1524c365373f0230a988186e0b130fa14f01fd259808b85451d194",
            "out.csv": "048d4b4a8155490bea7b15386c2467c5aa99c20f194cdaca31074a8ba5060e3c",
            "summary.json": "0377561853eb61b1a4e6858d2fb2809821dde82c5dfe9d5d876ca983db3fd126",
        },
    ),
    "sim-feedback-star-random": (
        0,
        {
            "stdout": "20c84423a638011db06897604e65708a2bb6ec659f1dbc5cd33064fea4cbecc5",
            "out.csv": "3f793a049c5faa5d97f915484e58d24d9af6170c62e16d35a901e86d6325cae8",
            "summary.json": "cd28bf961689f4a99f9c8eef3b4a8d9ff91f59a90677712130285fb14e895540",
        },
    ),
    "sim-feedback-star-reversed": (
        0,
        {
            "stdout": "2488ac849a4ad3d36f19127c7ff1b075604a84c24624342fa2738aa5348acd31",
            "out.csv": "d1305626b0f3c2e36ea41c8887362cbf503f7cad5be2ffff6f89ee07e068705f",
            "summary.json": "6c616a0dfe30597d3adbe6cef45d5bc918861320ecb2fab6a0674003b2b69cf7",
        },
    ),
    "sim-lists-file": (
        0,
        {
            "stdout": "71a9377018a96b9c0aa1925b4ed91e8be187e6a83baac8f4ce2d4ea5ecfdb9d6",
            "out.csv": "cdb4d03f64e45f73da3f514303347163897ea8721b06826b0c3ebeb8a10839a7",
            "summary.json": "b5fc3e40aa88283c8592386efe8927ace0f529d02f4cc5f6ec60703d73c8c7e2",
        },
    ),
    "sim-quasi-complete-canonical": (
        0,
        {
            "stdout": "989cb1600e89080e03cf2203c2a865f7f884fe87b7782c78d75eb5e3f23d5f3d",
            "out.csv": "4c0ba2f069018e66be39acb7df64aec1ec528923905084ed30781e5721577cde",
            "summary.json": "a2f97b7792336725022251e2fd546ffc74f33a91ebb28e98007ab5637a809689",
        },
    ),
    "sim-quasi-complete-random": (
        0,
        {
            "stdout": "b328a89775ba08daf0956549901b5656047de7b3c4bf9ab90d0af27241b86bdf",
            "out.csv": "84d7bb6495b0d2904815fd2dcf2202d1b246ec63bd067a9e27948f0bf955dbdd",
            "summary.json": "2436b27269f6b06f69e6347dc8225e3a191db95ae5c6f58d89cdc16d41506442",
        },
    ),
    "sim-quasi-complete-reversed": (
        0,
        {
            "stdout": "46ba833bcda887912f6e83bfe60ece531d70bce5fe5d2451fbf1f1df5044129f",
            "out.csv": "a64d939e222327754167038753ec041f43517266d586efd6a6272e5f3e4624c6",
            "summary.json": "b8fcdf5677455842b973bd205e58d65ff8e57fd0347f169d9971c1ce156b1b40",
        },
    ),
    "sim-quasi-star-canonical": (
        0,
        {
            "stdout": "24bb84909b338a7890063dc2ab4d4ac217a2929491dbdcf1be12b0deffb05d75",
            "out.csv": "f584184ed247eb885e453fb6f5e93adeca8b29e7f343789a6909cc714d54d1a5",
            "summary.json": "8eac9b20a33e28210c0e544895b2d7c48f539b1c4314eeeb97c211982b28addb",
        },
    ),
    "sim-quasi-star-random": (
        0,
        {
            "stdout": "e21a3d68686a0b8765cbd28fdf0b14adc5797cf6fd220393b45dbee29b8a1f53",
            "out.csv": "f5ce21d263338b128d724f7b1b22fb1a8bb53d214421ecda4c745031484958c8",
            "summary.json": "f40c8f526ce2cfaff51cb25b64746971c2ba9514acf1fbaae5db3d7068251d23",
        },
    ),
    "sim-quasi-star-reversed": (
        0,
        {
            "stdout": "111965c41e90065825bd32882d737532e297dc210ab8283b3eef15c7e09238c5",
            "out.csv": "deb012c7d1e4937bde68683d6c73f4be9da0d3eef230815371367ee51f26e3c0",
            "summary.json": "a8bc365270e39fcb5a3574ae4ca6dd79a4ee6bef2c9edc67665fe438b38a9678",
        },
    ),
    "sim-random-complete-canonical": (
        0,
        {
            "stdout": "2ae12e04e13a9892399d85894d32f585a6c293623b9fbd2e5f3fe94a7b6eac51",
            "out.csv": "752758464ce1206061707f163746c4ce73ba509e544e5998c8f8873fc632ff0d",
            "summary.json": "859e98d059bcba87c2368a56147098fb48d7782c58676e9a59516b91f6668f62",
        },
    ),
    "sim-random-complete-random": (
        0,
        {
            "stdout": "2ae12e04e13a9892399d85894d32f585a6c293623b9fbd2e5f3fe94a7b6eac51",
            "out.csv": "752758464ce1206061707f163746c4ce73ba509e544e5998c8f8873fc632ff0d",
            "summary.json": "859e98d059bcba87c2368a56147098fb48d7782c58676e9a59516b91f6668f62",
        },
    ),
    "sim-random-complete-reversed": (
        0,
        {
            "stdout": "2ae12e04e13a9892399d85894d32f585a6c293623b9fbd2e5f3fe94a7b6eac51",
            "out.csv": "752758464ce1206061707f163746c4ce73ba509e544e5998c8f8873fc632ff0d",
            "summary.json": "859e98d059bcba87c2368a56147098fb48d7782c58676e9a59516b91f6668f62",
        },
    ),
    "sim-random-star-canonical": (
        0,
        {
            "stdout": "c10edaacc1d7a6fb84b7292c64c4bad70d194fdf7b4ed5f4dc9be45a60c61250",
            "out.csv": "1d6da1a7fe650de02741d12fdc73d88fbac41f66fd7ddfa42353b7ee9abafe71",
            "summary.json": "c19c7f967d394b423be72f1043247426374aab9a865f40dc2fa568a88622d893",
        },
    ),
    "sim-random-star-random": (
        0,
        {
            "stdout": "c10edaacc1d7a6fb84b7292c64c4bad70d194fdf7b4ed5f4dc9be45a60c61250",
            "out.csv": "1d6da1a7fe650de02741d12fdc73d88fbac41f66fd7ddfa42353b7ee9abafe71",
            "summary.json": "c19c7f967d394b423be72f1043247426374aab9a865f40dc2fa568a88622d893",
        },
    ),
    "sim-random-star-reversed": (
        0,
        {
            "stdout": "c10edaacc1d7a6fb84b7292c64c4bad70d194fdf7b4ed5f4dc9be45a60c61250",
            "out.csv": "1d6da1a7fe650de02741d12fdc73d88fbac41f66fd7ddfa42353b7ee9abafe71",
            "summary.json": "c19c7f967d394b423be72f1043247426374aab9a865f40dc2fa568a88622d893",
        },
    ),
}


def run_case(argv, directory, capsys, monkeypatch):
    """Exit code and the sha256 of stdout and of each output file written."""
    monkeypatch.chdir(directory)
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    code = main(list(argv))
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name in OUTPUTS:
        path = directory / name
        if path.exists():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return code, digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path, capsys, monkeypatch):
    assert run_case(CASES[case], tmp_path, capsys, monkeypatch) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_overwritten_outputs_keep_the_digests(case, tmp_path, capsys, monkeypatch):
    """A re-run over longer files leaves exactly its own bytes in them."""
    assert run_case(CASES[case], tmp_path, capsys, monkeypatch) == GOLDEN[case]
    for name in OUTPUTS:
        path = tmp_path / name
        if path.exists():
            path.write_bytes(b"junk,\n" * (path.stat().st_size // 6 + 64))
    assert run_case(CASES[case], tmp_path, capsys, monkeypatch) == GOLDEN[case]
