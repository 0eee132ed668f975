module xmlclust/bench

go 1.24

require xmlclust v0.0.0

replace xmlclust => ../
