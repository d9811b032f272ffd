"""Child process of the cli-suite workload: runs one hdw-forge command.

    python3 perfbench/entry.py [--sidecar FILE --op K] -- <hdw-forge arguments>

Without --sidecar the command runs exactly as the `hdw-forge` console script
runs it.  With --sidecar the benchmark's tracer wraps the package first, and
the spans of op K are written to FILE when the command ends.
"""

import sys


def main(argv):
    sidecar = op = None
    if argv[:1] == ["--sidecar"]:
        sidecar, op, argv = argv[1], int(argv[3]), argv[4:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from hdw_forge import cli
    if sidecar is None:
        return cli.main(argv)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op)
    try:
        return cli.main(argv)
    finally:
        tracer.end_op()
        tracer.write(sidecar)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
