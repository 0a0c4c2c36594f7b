// Gulf war: the paper's §2.1 running scenario — a video decomposed into
// sub-plots, scenes and shots — queried with level-modal operators
// (extended conjunctive formulas) and browsing-style root queries.
package main

import (
	"fmt"
	"log"

	"htlvideo"
)

// Object ids.
const (
	bomber  htlvideo.ObjectID = 1
	fighter htlvideo.ObjectID = 2
	tank    htlvideo.ObjectID = 3
	flag    htlvideo.ObjectID = 4
)

func main() {
	tax := htlvideo.NewTaxonomy()
	tax.MustAdd("bomber", "airplane")
	tax.MustAdd("fighter", "airplane")
	tax.MustAdd("airplane", "vehicle")
	tax.MustAdd("tank", "vehicle")

	store := htlvideo.NewStore(tax, htlvideo.DefaultWeights())
	if err := store.Add(buildVideo()); err != nil {
		log.Fatal(err)
	}

	// Which sub-plots contain, somewhere below at the shot level, a bomber
	// taking off followed later by a target being destroyed?
	const subplotQuery = `
		at-shot-level(
			(exists p . present(p) and type(p) = 'bomber' and taking_off(p))
			until destroyed
		)`
	res, err := store.Query(subplotQuery, htlvideo.AtLevel(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class %v — per sub-plot:\n", res.Class)
	for _, r := range res.Ranked() {
		fmt.Printf("  sub-plots %v  similarity %.3g / %g\n", r.Iv, r.Sim.Act, r.Sim.Max)
	}

	// A browsing query at the root (§2.1): a military-operation video whose
	// shot sequence eventually shows the raised flag of the surrender.
	const browseQuery = `
		type = 'military operation'
		and at-shot-level(eventually (exists f . present(f) and type(f) = 'flag' and raised(f)))`
	res2, err := store.Query(browseQuery, htlvideo.AtRoot())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbrowsing query at the root: similarity %.3g / %g\n",
		res2.PerVideo[1].At(1).Act, res2.PerVideo[1].MaxSim)
}

// buildVideo assembles the hierarchy of §2.1: the video, three sub-plots
// (bombing, ground war, surrender), scenes, shots.
func buildVideo() *htlvideo.Video {
	v := htlvideo.NewVideo(1, "Gulf war coverage", map[string]int{
		"sub-plot": 2, "scene": 3, "shot": 4,
	})
	v.Root.Meta.Attrs = htlvideo.Attrs{{Name: "type", Val: htlvideo.Str("military operation")}}

	bombing := v.Root.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("bombing of positions")).Build())
	c2 := bombing.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("command and control centers")).Build())
	c2.AppendChild(htlvideo.Seg(). // take-off shot
					ObjC(bomber, "bomber", 0.95).Prop("taking_off").
					ObjC(fighter, "fighter", 0.9).Prop("taking_off").
					Build())
	c2.AppendChild(htlvideo.Seg(). // bombs dropped, target destroyed
					ObjC(bomber, "bomber", 0.9).
					Attr("destroyed", htlvideo.Int(1)).
					Build())
	c2.AppendChild(htlvideo.Seg(). // the return
					ObjC(bomber, "bomber", 0.8).
					Build())
	airfields := bombing.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("airfields")).Build())
	airfields.AppendChild(htlvideo.Seg().
		ObjC(fighter, "fighter", 0.85).
		Build())

	ground := v.Root.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("ground war")).Build())
	desert := ground.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("desert advance")).Build())
	desert.AppendChild(htlvideo.Seg().
		ObjC(tank, "tank", 0.9).Prop("moving").
		Build())

	surrender := v.Root.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("surrender")).Build())
	camp := surrender.AppendChild(htlvideo.Seg().Attr("title", htlvideo.Str("the camp")).Build())
	camp.AppendChild(htlvideo.Seg().
		ObjC(flag, "flag", 1).Prop("raised").
		Build())
	return v
}
