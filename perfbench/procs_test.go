package main

import (
	"os/exec"
	"testing"
)

func TestNoChildStartsAfterKillAll(t *testing.T) {
	c := newChildren()
	live := exec.Command("sleep", "60")
	if err := c.start(live); err != nil {
		t.Fatal(err)
	}
	c.killAll()
	if live.ProcessState == nil {
		t.Fatal("killAll returned before reaping its child")
	}
	if err := c.start(exec.Command("sleep", "60")); err == nil {
		t.Fatal("a child started after killAll")
	}
}
