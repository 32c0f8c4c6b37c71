"""Fixed-seed reports, pinned byte for byte.

A refactor of the arithmetic or of the enumeration must leave every
report it produces unchanged.  These digests pin the sha256 of
``verify_claim(lam, r, samples=8, seed=seed).to_json()`` for ``1/1`` at
r = 3..6 and ``0.3,0.7`` at r = 3..5 with seeds 0 and 1, and, for seed
0, the CSV of the branch points that run checked.
"""

import hashlib

import pytest

from kodaira.config_curve import ConfigurationCurve
from kodaira.verifier import verify_claim

# (lam, r) -> (report digest for seed 0, for seed 1, branch-point CSV digest)
GOLDEN = {
    ("1/1", 3): (
        "912034e587f7ef72dfe082ca21565bb5b99797601e4d4a80fa04c163e7a9564a",
        "8e5f5c096b4e001d36696ef72e9db9c81f6d436c20bc7924ca74c3799271af02",
        "7a844728fddaa03da8a6ef20414e5df38b691d69d98e01492bb6e82981ffaa54"),
    ("1/1", 4): (
        "68f2bcb66956c1110ea563645bb073ada8e32dbc0b5d20e25229c7822f4acb70",
        "5d59b2c876a27e2c9930c65f8d9c2716319b4de6b51c5106ab090388eac8773c",
        "4048940c4e5294eb682dd04aff21b1e347c19c50224d9c413cae37cc69a02b7b"),
    ("1/1", 5): (
        "17724b1f017df1c22c927d5d7399c1706c2a62eafcb61817bd8f4f1dc8835073",
        "a8394776c96c3d2d69df5c8b74581de275e1a82fbe78b0dcd83213b91e721c45",
        "249279d5ed7b559d03ef984aabe2d70addf6d4ccf36ca8bc307ea07c136bc06b"),
    ("1/1", 6): (
        "75c6a06ad07720c4b6a2f05e7c4823f2934027103707f881082d6267a680c924",
        "104b38c503f2a6773fa3cb5a28624f16373fb4d56cb802f4b9f66a1f8c3a95b2",
        "8216bfe56d0488182688e6a48cf7b46c07d98c0d4874ce60c0005e8c27c3ac3f"),
    ("0.3,0.7", 3): (
        "f0e59789743b4668fc4dfa2abf23628e983b6d9243b900337fe92b52cf4f32d9",
        "cd374848a7757814e239fad57081d4c07922a806803699678582778e4b7daee2",
        "f1be5e7fa7c68b7efc3a632b27f05749e43db9a7d6083fd4fcbc009d4afa8e47"),
    ("0.3,0.7", 4): (
        "e1799b981bb56c91b08ca7f337c57c31745e7d3d6cb747e9aec7d0ee3912c3bb",
        "d21983308000fc7c3a369b96d2616df3e48bedbdb4ae765ae499f4c7420ba101",
        "c41b6fb50d32a1b6f7408c65169d7a9f8202c52eedc6880df2540afb78951486"),
    ("0.3,0.7", 5): (
        "0a6dcc910db87585b69bb15d8171b0b027a1d015c810f323c28ac08e01c46b59",
        "f9cdd639362ce42bf763b34fd5e267def6f16e7c30c0c296a34555d95b3ffeb7",
        "1ee54256c383c3560bfe9f8de1946adcdd0da14cd9005ef75e5e21094c1afaa4"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("lam, r", sorted(GOLDEN))
def test_fixed_seed_reports_are_unchanged(lam, r):
    seed0, seed1, branch_csv = GOLDEN[lam, r]
    run = verify_claim(lam, r, samples=8, seed=0)
    assert _sha256(run.to_json()) == seed0
    assert _sha256(ConfigurationCurve.enumeration_to_csv(run.branch_points)) == branch_csv
    assert _sha256(verify_claim(lam, r, samples=8, seed=1).to_json()) == seed1
