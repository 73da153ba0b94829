"""The canonical stdout of a fixed set of commands, pinned by sha1.

A refactor must leave every report and listing byte-identical. The digests
were taken from the output of these commands before any of the code they
pin was restructured; a change here is a change of the output format.
"""

import hashlib

import pytest

from balkit import cli

PINNED = [
    ("verify --max-n 60 --format json", "33919ed66c4cec7f7b9fe52c93da1812e84cb50a"),
    ("verify --max-n 60 --format plain", "d9729538e80eafb45cb9376303f9f9ce591bda9c"),
    ("verify --max-n 60 --format csv --verbose", "5c6a46ea03d670daeb46d518ef4466f0b6f67456"),
    ("verify --max-n 40 --id LC_PROD --id PARITY_B --id MOD16_c --format json",
     "0f979c94a778331c648c892c440331eb8ee5fe4f"),
    ("seq B 0 40", "8cd9d0d41f84ae57b1ccbdb2c630f249c9f571d0"),
    ("seq c 1 30 --format json", "b500f0356c8720a91a1520def4f9425f08201775"),
    ("seq C 700 800 --format csv", "188c5201c838fe0fe53be32fb34f72e44f4d1aee"),
    ("seq B 5000 5050 --format json", "c9dbceaa7fa1400135af42e793c429c0ddd948e4"),
    ("term b 20000 --format json", "06beec64edb4c166085c28f5e195118f4a0638f3"),
    ("term C 300 --method binet --format json", "caabbd171c3d93bf6ade85a1e82e28fca8a8c537"),
    ("term B 15000 --method recurrence", "31d01e33c90c0c7bf80d398b9fe6a6a71139ec42"),
    ("classify 577 --format json", "621c0eda80457070880d5d7c4fc8a627400e3567"),
    ("search cobalancing --limit 100000000 --format json",
     "d8e554be41c6802ebab1e4359650734463c45a18"),
]


@pytest.mark.parametrize("command, digest", PINNED, ids=[c for c, _ in PINNED])
def test_stdout_is_byte_identical(command, digest, capsys):
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == digest
