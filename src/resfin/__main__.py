"""`python -m resfin ...` runs the command-line driver."""

from resfin.cli import entry

if __name__ == "__main__":
    entry()
