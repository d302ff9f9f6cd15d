"""Rewrite the behaviour-contract goldens under tests/goldens/.

Run from the repository root:

    PYTHONPATH=src python tests/regen_goldens.py

Only for a change that alters the contract on purpose: the rewritten files
then show that change as a diff, which the change's notes name.  Files of
cases that no longer exist are removed.
"""

import contract


def main():
    new = contract.texts(contract.build_reports())
    contract.GOLDENS.mkdir(exist_ok=True)
    for stale in sorted(contract.GOLDENS.iterdir()):
        if stale.name not in new:
            stale.unlink()
            print(f"removed {stale.name}")
    for name, text in sorted(new.items()):
        path = contract.GOLDENS / name
        if not path.exists() or path.read_bytes() != text.encode():
            path.write_bytes(text.encode())
            print(f"wrote {name}")


if __name__ == "__main__":
    main()
