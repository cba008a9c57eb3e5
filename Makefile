GO ?= go

# The gate list and each gate's commands live only in scripts/check.sh;
# `make check` runs them all and `make <gate>` runs one.
GATES := $(shell sh scripts/check.sh --list)

.PHONY: all check $(GATES) bench bench-pipeline clean

all: check

check:
	GO=$(GO) sh scripts/check.sh

$(GATES):
	GO=$(GO) sh scripts/check.sh $@

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

bench-pipeline:
	$(GO) test -run NONE -bench 'Pipelined|Lockstep' -benchtime 2s ./internal/datalet/

clean:
	$(GO) clean ./...
